package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// Array is the bounded array-based DCAS deque of Section 3, carrying
// elements of type T.  Create with NewArray.  All methods are safe for
// concurrent use.
type Array[T any] struct {
	core  *arraydeque.Deque
	slots *arena.Arena[T]
	bound uint64 // WithMemoryBound budget; 0 = unbounded
	inst  *instruments
}

// NewArray returns an empty array-based deque with the given capacity
// (≥ 1).  Capacity is exact: the deque holds at most capacity elements
// and pushes beyond that return ErrFull.
func NewArray[T any](capacity int, opts ...Option) *Array[T] {
	if capacity < 1 {
		panic("deque: capacity must be ≥ 1")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var prov dcas.Provider
	switch {
	case cfg.globalLockDCAS:
		prov = new(dcas.GlobalLock)
	case cfg.endLockDCAS:
		prov = new(dcas.EndLock)
	case cfg.bitLockDCAS:
		prov = new(dcas.BitLock)
	}
	var inst *instruments
	if cfg.telemetry {
		inst = newInstruments(cfg.telemetryName, cfg.latency)
		prov, cfg.backoff = inst.instrument(prov, cfg.backoff)
	}
	coreOpts := []arraydeque.Option{
		arraydeque.WithStrongDCAS(cfg.strongDCAS),
		arraydeque.WithRecheckIndex(cfg.recheckIndex),
		arraydeque.WithPaddedCells(cfg.paddedCells),
		arraydeque.WithBackoff(cfg.backoff),
	}
	if prov != nil {
		coreOpts = append(coreOpts, arraydeque.WithProvider(prov))
	}
	if inst != nil {
		coreOpts = append(coreOpts, arraydeque.WithTelemetry(inst.sink))
	}
	// The slot arena needs headroom beyond capacity: a push allocates its
	// slot before discovering the deque is full, so slots for concurrent
	// losing pushes must exist.  2×capacity+64 makes allocation failure
	// unreachable in practice; if it ever fails the push reports ErrFull.
	d := &Array[T]{
		core:  arraydeque.New(capacity, coreOpts...),
		slots: arena.New[T](2*capacity+64, arena.WithBlockSize(256)),
		bound: cfg.memBound,
		inst:  inst,
	}
	inst.bind(d.memSnapshot)
	return d
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (d *Array[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *Array[T]) CloseTelemetry() { d.inst.close() }

// Cap reports the deque's capacity.
func (d *Array[T]) Cap() int { return d.core.Cap() }

// PushLeft implements Deque.
func (d *Array[T]) PushLeft(v T) error {
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.slots.Put(arena.Left, v)
	if !ok {
		return ErrFull
	}
	if d.core.PushLeft(h) == spec.Full {
		take(d.slots, arena.Left, h)
		return ErrFull
	}
	return nil
}

// PushRight implements Deque.
func (d *Array[T]) PushRight(v T) error {
	if err := d.admit(); err != nil {
		return err
	}
	h, ok := d.slots.Put(arena.Right, v)
	if !ok {
		return ErrFull
	}
	if d.core.PushRight(h) == spec.Full {
		take(d.slots, arena.Right, h)
		return ErrFull
	}
	return nil
}

// PopLeft implements Deque.
func (d *Array[T]) PopLeft() (T, error) {
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return take(d.slots, arena.Left, h), nil
}

// PopRight implements Deque.
func (d *Array[T]) PopRight() (T, error) {
	h, r := d.core.PopRight()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return take(d.slots, arena.Right, h), nil
}

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (d *Array[T]) Items() ([]T, error) {
	hs, err := d.core.Items()
	if err != nil {
		return nil, err
	}
	return peekAll(d.slots, hs), nil
}

var _ Deque[int] = (*Array[int])(nil)
