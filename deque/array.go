package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/arraydeque"
)

// Array is the bounded array-based DCAS deque of Section 3, carrying
// elements of type T.  Create with NewArray.  All methods are safe for
// concurrent use.
type Array[T any] struct {
	slotted[T]
	capacity int
}

// NewArray returns an empty array-based deque with the given capacity
// (≥ 1).  Capacity is exact: the deque holds at most capacity elements
// and pushes beyond that return ErrFull.  Its DCAS emulation is
// dcas.EndLock (three locked instructions per DCAS; DESIGN.md §6).
func NewArray[T any](capacity int, opts ...Option) *Array[T] {
	if capacity < 1 {
		panic("deque: capacity must be ≥ 1")
	}
	cfg, inst := configure(opts)
	// The core counts its own DCASes into the sink (one flush per
	// operation), so its provider is never wrapped: the default EndLock
	// keeps its inlined fast path with telemetry on.
	var coreOpts []arraydeque.Option
	if inst != nil {
		coreOpts = append(coreOpts, arraydeque.WithTelemetry(inst.sink))
	}
	// The slot arena needs headroom beyond capacity: a push allocates its
	// slot before discovering the deque is full, so slots for concurrent
	// losing pushes must exist.  2×capacity+64 makes allocation failure
	// unreachable in practice; if it ever fails the push reports ErrFull.
	slots := arena.New[T](2*capacity+64, arena.WithBlockSize(256))
	d := &Array[T]{
		slotted:  newSlotted[T](arraydeque.New(capacity, coreOpts...), slots, cfg, inst),
		capacity: capacity,
	}
	inst.bind(d.ledger)
	return d
}

// Cap reports the deque's capacity.
func (d *Array[T]) Cap() int { return d.capacity }

var _ Deque[int] = (*Array[int])(nil)
