package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// core is the word-level vocabulary every backend already has: the
// paper's four operations on one-word values and a quiescent snapshot
// of the contents.
type core interface {
	PushLeft(h uint64) spec.Result
	PushRight(h uint64) spec.Result
	PopLeft() (uint64, spec.Result)
	PopRight() (uint64, spec.Result)
	Items() ([]uint64, error)
}

// slotted is this library's one substitution for the paper's word-sized
// values: an element of type T is boxed into a slot arena, the core runs
// on the slot's one-word handle, and the element is unboxed on pop.  It
// also holds the memory bound and the telemetry instruments.  Array,
// List, ChaseLev and Mutex embed it and add only what is specific to
// their backend.
type slotted[T any] struct {
	core  core
	slots *arena.Arena[T]
	// aux adds the backend's storage beyond the element slots (list
	// nodes, LFRC objects or the Chase–Lev ring chain) to a memory
	// snapshot, structurally audited or not; nil when there is none.
	aux func(m *telemetry.MemSnapshot, audit bool)
	// compact gives back what the backend can free on demand (the list
	// deques' deferred deletions); nil when there is nothing.
	compact func()
	bound   uint64 // WithMemoryBound budget; 0 = unbounded
	need    uint64 // bytes one push adds: its slot, plus a node for List
	inst    *instruments
}

// newSlotted returns the shared half of a public deque over core c.  The
// caller registers the named exporter entry (inst.bind) once the value
// sits at its final address.
func newSlotted[T any](c core, slots *arena.Arena[T], cfg config, inst *instruments) slotted[T] {
	return slotted[T]{
		core:  c,
		slots: slots,
		bound: cfg.memBound,
		need:  slots.SlotBytes(),
		inst:  inst,
	}
}

// PushLeft implements Deque.
func (s *slotted[T]) PushLeft(v T) error { return s.push(arena.Left, v) }

// PushRight implements Deque.
func (s *slotted[T]) PushRight(v T) error { return s.push(arena.Right, v) }

// push boxes v on the pushing end's lane and hands its handle to the
// core; a full core gives the slot back.  It fails with ErrMemoryBound
// before boxing when the bound rejects it, and with ErrFull when the
// slot arena or the core is full.
func (s *slotted[T]) push(l arena.Lane, v T) error {
	if s.bound != 0 {
		if err := s.admit(); err != nil {
			return err
		}
	}
	h, ok := s.slots.Put(l, v)
	if !ok {
		return ErrFull
	}
	var r spec.Result
	if l == arena.Left {
		r = s.core.PushLeft(h)
	} else {
		r = s.core.PushRight(h)
	}
	if r == spec.Full {
		s.take(l, h)
		return ErrFull
	}
	return nil
}

// PopLeft implements Deque.
func (s *slotted[T]) PopLeft() (T, error) {
	h, r := s.core.PopLeft()
	return s.popped(arena.Left, h, r)
}

// PopRight implements Deque.
func (s *slotted[T]) PopRight() (T, error) {
	h, r := s.core.PopRight()
	return s.popped(arena.Right, h, r)
}

// popped unboxes the result of one core pop on lane l.
func (s *slotted[T]) popped(l arena.Lane, h uint64, r spec.Result) (T, error) {
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return s.take(l, h), nil
}

// take returns the element behind a handle the core handed back and
// frees its slot through lane l.  A handle that does not resolve means
// the deque's state is corrupt.
func (s *slotted[T]) take(l arena.Lane, h uint64) T {
	v, ok := s.slots.Take(l, h)
	if !ok {
		panic("deque: handle does not resolve (corrupt state)")
	}
	return v
}

// PopLMany implements Deque.
func (s *slotted[T]) PopLMany(max int) []T {
	return s.popMany(max, arena.Left, s.core.PopLeft)
}

// PopRMany implements Deque.
func (s *slotted[T]) PopRMany(max int) []T {
	return s.popMany(max, arena.Right, s.core.PopRight)
}

// popManyChunk bounds the buffer a batch pop allocates up front, so a
// caller passing a huge max (e.g. "drain everything") does not force a
// proportionally huge allocation; past it the result grows by append.
const popManyChunk = 256

// popMany implements the PopLMany/PopRMany contract: a sequence of
// independent single pops on one end, each value linearizing inside the
// pop that took it, stopping early at empty.  Each handle is taken from
// the slot arena on the popping end's lane.  An empty deque allocates
// nothing.
func (s *slotted[T]) popMany(max int, l arena.Lane, pop func() (uint64, spec.Result)) []T {
	var out []T
	for len(out) < max {
		h, r := pop()
		if r != spec.Okay {
			break
		}
		if out == nil {
			out = make([]T, 0, min(max, popManyChunk))
		}
		out = append(out, s.take(l, h))
	}
	return out
}

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (s *slotted[T]) Items() ([]T, error) {
	hs, err := s.core.Items()
	if err != nil {
		return nil, err
	}
	out := make([]T, len(hs))
	for i, h := range hs {
		idx, ok := s.slots.Resolve(h)
		if !ok {
			panic("deque: stored handle does not resolve")
		}
		out[i] = *s.slots.Get(idx)
	}
	return out, nil
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (s *slotted[T]) Stats() (Stats, bool) {
	if s.inst == nil {
		return Stats{}, false
	}
	return s.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (s *slotted[T]) CloseTelemetry() { s.inst.close() }

// Mem returns the deque's memory-occupancy snapshot, with every arena's
// structural audit (O(slots carved)).  Always available, independent of
// the telemetry options.
func (s *slotted[T]) Mem() MemStats { return memStatsOf(s.mem(true)) }

// ledger is the O(1) memory snapshot: the ledgers without the audit.
// Telemetry scrapes and the memory bound read it.
func (s *slotted[T]) ledger() telemetry.MemSnapshot { return s.mem(false) }

func (s *slotted[T]) mem(audit bool) telemetry.MemSnapshot {
	m := telemetry.MemSnapshot{Slots: s.slots.Ledger()}
	if audit {
		m.Slots = s.slots.Occupancy()
	}
	if s.aux != nil {
		s.aux(&m, audit)
	}
	return m
}

// admit is the WithMemoryBound admission check, run before the element
// is boxed so a rejected push allocates nothing: over budget, compact
// (when the backend can), then re-check and reject.  Concurrent pushes
// admit against the same counters without mutual exclusion, so the bound
// can be overshot by at most one in-flight push per concurrent pusher —
// a policy limit, not a safety line.
func (s *slotted[T]) admit() error {
	if s.ledger().LiveBytes()+s.need <= s.bound {
		return nil
	}
	if s.compact != nil {
		s.compact()
		if s.ledger().LiveBytes()+s.need <= s.bound {
			return nil
		}
	}
	return ErrMemoryBound
}
