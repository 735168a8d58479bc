package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// listCore is the operation vocabulary shared by the two list-deque
// representations: the deleted-bit core (Section 4 main text) and the
// dummy-node core (Figure 10, footnote 4).
type listCore interface {
	PushLeft(v uint64) spec.Result
	PushRight(v uint64) spec.Result
	PopLeft() (uint64, spec.Result)
	PopRight() (uint64, spec.Result)
	PopLeftMany(out []uint64) int
	PopRightMany(out []uint64) int
	Items() ([]uint64, error)
	// Compact completes pending physical deletions on both ends, freeing
	// spliced-out nodes (and retired dummies) now instead of at the next
	// same-side operation.
	Compact()
	// Occupancy returns the node arena's allocation ledger.
	Occupancy() arena.Occupancy
	// LiveNodes reports the node arena's live count in O(1).
	LiveNodes() int
}

// List is the unbounded linked-list DCAS deque of Section 4, carrying
// elements of type T.  Create with NewList.  All methods are safe for
// concurrent use.
type List[T any] struct {
	core  listCore
	slots *arena.Arena[T]
	lfrc  bool   // core is the LFRC representation (Mem attribution)
	bound uint64 // WithMemoryBound budget; 0 = unbounded
	// nodeBytes is the core's per-node footprint, cached for the bound's
	// headroom estimate (a push costs one slot plus one node).
	nodeBytes uint64
	inst      *instruments
}

// WithDummyNodes selects the Figure 10 representation for NewList: the
// logical-deletion mark is carried by indirection through "delete-bit"
// dummy nodes instead of a flag bit packed into the sentinel pointers.
// Semantically identical; exists for hardware without spare pointer bits.
// Incompatible with WithEagerDelete (ignored if both are given).
func WithDummyNodes() Option {
	return func(c *config) { c.dummyNodes = true }
}

// WithLFRC selects lock-free reference counting for node reclamation
// (the methodology of the paper's reference [12]): every node carries a
// count of shared and local references and is reclaimed deterministically
// when the last one disappears, instead of relying on the arena's gc or
// tagged-reuse modes.  Incompatible with WithEagerDelete and
// WithDummyNodes (LFRC wins if combined).
func WithLFRC() Option {
	return func(c *config) { c.lfrc = true }
}

// listProvider picks a list deque's DCAS emulation; nil selects the
// core's default, the per-location TwoLock.  WithEndLockDCAS is
// ignored: list-deque link words appear on both sides of DCAS pairs,
// outside EndLock's anchored-pair contract.
func listProvider(cfg config) dcas.Provider {
	if cfg.globalLockDCAS {
		return new(dcas.GlobalLock)
	}
	return nil
}

// NewList returns an empty list-based deque.  Pushes fail with ErrFull
// only if the internal node arena is exhausted (see WithMaxNodes).
func NewList[T any](opts ...Option) *List[T] {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	prov := listProvider(cfg)
	var inst *instruments
	if cfg.telemetry {
		inst = newInstruments(cfg.telemetryName, cfg.latency)
		prov, cfg.backoff = inst.instrument(prov, cfg.backoff)
	}
	coreOpts := []listdeque.Option{
		listdeque.WithMaxNodes(cfg.maxNodes + 2), // + the two sentinels
		listdeque.WithNodeReuse(cfg.nodeReuse),
		listdeque.WithBackoff(cfg.backoff),
	}
	if prov != nil {
		coreOpts = append(coreOpts, listdeque.WithProvider(prov))
	}
	if inst != nil {
		coreOpts = append(coreOpts, listdeque.WithTelemetry(inst.sink))
	}
	var core listCore
	switch {
	case cfg.lfrc:
		core = listdeque.NewLFRC(coreOpts...)
	case cfg.dummyNodes:
		core = listdeque.NewDummy(coreOpts...)
	default:
		core = listdeque.New(append(coreOpts,
			listdeque.WithEagerDelete(cfg.eagerDelete))...)
	}
	d := &List[T]{
		core:      core,
		slots:     arena.New[T](cfg.maxNodes, arena.WithReuse(cfg.nodeReuse)),
		lfrc:      cfg.lfrc,
		bound:     cfg.memBound,
		nodeBytes: core.Occupancy().SlotBytes,
		inst:      inst,
	}
	inst.bind(d.memSnapshot)
	return d
}

// Stats returns the deque's telemetry snapshot; ok is false (and the
// snapshot zero) unless the deque was built with WithTelemetry or
// WithTelemetryName.
func (d *List[T]) Stats() (Stats, bool) {
	if d.inst == nil {
		return Stats{}, false
	}
	return d.inst.stats(), true
}

// CloseTelemetry removes the deque from the process-wide exporter if it
// was registered with WithTelemetryName.  Stats keeps working; only the
// exporter entry is dropped.  Safe to call regardless of configuration.
func (d *List[T]) CloseTelemetry() { d.inst.close() }

// PushLeft implements Deque.
func (d *List[T]) PushLeft(v T) error {
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
func (d *List[T]) PushRight(v T) error {
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
func (d *List[T]) PopLeft() (T, error) {
	h, r := d.core.PopLeft()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return take(d.slots, arena.Left, h), nil
}

// PopRight implements Deque.
func (d *List[T]) PopRight() (T, error) {
	h, r := d.core.PopRight()
	if r == spec.Empty {
		var zero T
		return zero, ErrEmpty
	}
	return take(d.slots, arena.Right, h), nil
}

// Compact completes the deque's deferred physical deletions on both
// ends now, freeing spliced-out nodes (and retired dummies) instead of
// leaving them to the next same-side operation.  Bounded deques run the
// same pass automatically before rejecting a push with ErrMemoryBound;
// calling it directly is useful before reading Mem at a quiescent point.
// Safe for concurrent use.
func (d *List[T]) Compact() { d.core.Compact() }

// Items returns the deque's contents left to right.  It must only be
// called while no operations are in flight (tests, diagnostics).
func (d *List[T]) Items() ([]T, error) {
	hs, err := d.core.Items()
	if err != nil {
		return nil, err
	}
	return peekAll(d.slots, hs), nil
}

var _ Deque[int] = (*List[int])(nil)
