package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/telemetry"
)

// ChaseLev is the native single-CAS work-stealing deque of Chase & Lev
// ("Dynamic Circular Work-Stealing Deque", SPAA 2005), carrying elements
// of type T.  Create with NewChaseLev.  Unlike the DCAS deques it needs
// no DCAS emulation at all: the owner's end runs on plain atomic stores
// and loads, and steals commit with one CompareAndSwap on the top
// index — which makes it the fast backend for the owner-LIFO/thief-FIFO
// access pattern of a work-stealing scheduler (sched.WithChaseLev).
//
// The trade against the paper-faithful deques is generality:
//
//   - Chase–Lev is single-ended-push.  The owner end is mapped to
//     PushRight/PopRight and the steal end to PopLeft/PopLMany, matching
//     how sched already orients its deques (owner right, thieves left);
//     PushLeft returns ErrUnsupported.
//   - PushRight, PopRight and PopRMany are OWNER-ONLY: at most one
//     goroutine may use the right end (concurrent right-end calls race by design —
//     the algorithm's whole speedup comes from the owner not
//     synchronizing).  PopLeft and PopLMany are safe for any number of
//     goroutines.
//
// Storage grows: the circular array doubles when full and pushes only
// fail when the slot arena is exhausted (the maxNodes bound, as for
// List).  Retired arrays are kept reachable until the deque dies, so
// stale readers stay safe — the same no-recycling retirement discipline
// as the node arena's gc mode.
//
// Stats' DCAS block is always zero for this backend — there is no
// emulation underneath; the end counters carry the take/steal/empty
// traffic and Right.Grows the array doublings.
type ChaseLev[T any] struct {
	slotted[T]
}

// NewChaseLev returns an empty Chase–Lev work-stealing deque.  It is
// unbounded up to the arena's maxNodes bound (default 1<<20, settable
// with WithMaxNodes).  The telemetry options, WithMaxNodes and
// WithMemoryBound apply; the list deque's options (WithoutNodeReuse,
// WithDummyNodes, WithLFRC) are meaningless for this backend and are
// ignored.
func NewChaseLev[T any](opts ...Option) *ChaseLev[T] {
	cfg, inst := configure(opts)
	var coreOpts []chaselev.Option
	if inst != nil {
		// There is no DCAS provider to instrument; the DCAS counters stay
		// zero.
		coreOpts = append(coreOpts, chaselev.WithTelemetry(inst.sink))
	}
	c := chaselev.New(coreOpts...)
	s := newSlotted[T](c, arena.New[T](cfg.maxNodes, arena.WithBlockSize(256)), cfg, inst)
	s.aux = func(m *telemetry.MemSnapshot, _ bool) {
		r := c.Rings()
		m.Rings = &r
	}
	d := &ChaseLev[T]{slotted: s}
	inst.bind(d.ledger)
	return d
}

// Cap reports the slot-arena bound: the most elements the deque can
// hold before pushes fail with ErrFull.
func (d *ChaseLev[T]) Cap() int { return d.slots.Cap() }

// PushLeft implements Deque.  Chase–Lev has no left push (the paper's
// deque is single-ended-push); it always returns ErrUnsupported without
// touching the deque.
func (d *ChaseLev[T]) PushLeft(v T) error { return ErrUnsupported }

var _ Deque[int] = (*ChaseLev[int])(nil)
