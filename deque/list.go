package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/telemetry"
)

// listCore is the operation vocabulary shared by the three list-deque
// representations: the deleted-bit core (Section 4 main text), the
// dummy-node core (Figure 10, footnote 4) and the LFRC core.
type listCore interface {
	core
	// Compact completes pending physical deletions on both ends, freeing
	// spliced-out nodes (and retired dummies) now instead of at the next
	// same-side operation.
	Compact()
	// Occupancy returns the node arena's audited allocation ledger;
	// Ledger is the same without the audit, in O(1).
	Occupancy() arena.Occupancy
	Ledger() arena.Occupancy
}

// List is the unbounded linked-list DCAS deque of Section 4, carrying
// elements of type T.  Create with NewList.  All methods are safe for
// concurrent use.
type List[T any] struct {
	slotted[T]
}

// WithDummyNodes selects the Figure 10 representation for NewList: the
// logical-deletion mark is carried by indirection through "delete-bit"
// dummy nodes instead of a flag bit packed into the sentinel pointers.
// Semantically identical; exists for hardware without spare pointer bits.
func WithDummyNodes() Option {
	return func(c *config) { c.dummyNodes = true }
}

// WithLFRC selects lock-free reference counting for node reclamation
// (the methodology of the paper's reference [12]): every node carries a
// count of shared and local references and is reclaimed deterministically
// when the last one disappears, instead of relying on the arena's gc or
// tagged-reuse modes.  Incompatible with WithDummyNodes (LFRC wins if
// combined).
func WithLFRC() Option {
	return func(c *config) { c.lfrc = true }
}

// NewList returns an empty list-based deque.  Pushes fail with ErrFull
// only if the internal node arena is exhausted (see WithMaxNodes).
func NewList[T any](opts ...Option) *List[T] {
	cfg, inst := configure(opts)
	coreOpts := []listdeque.Option{
		listdeque.WithMaxNodes(cfg.maxNodes + 2), // + the two sentinels
		listdeque.WithNodeReuse(cfg.nodeReuse),
	}
	if inst != nil {
		// Count every DCAS attempt in the sink's DCAS lanes.
		coreOpts = append(coreOpts,
			listdeque.WithProvider(inst.sink.Instrument(dcas.Default())),
			listdeque.WithTelemetry(inst.sink))
	}
	var c listCore
	switch {
	case cfg.lfrc:
		c = listdeque.NewLFRC(coreOpts...)
	case cfg.dummyNodes:
		c = listdeque.NewDummy(coreOpts...)
	default:
		c = listdeque.New(coreOpts...)
	}
	s := newSlotted[T](c, arena.New[T](cfg.maxNodes, arena.WithReuse(cfg.nodeReuse)), cfg, inst)
	s.need += c.Ledger().SlotBytes // a push costs one slot plus one node
	s.compact = c.Compact
	lfrc := cfg.lfrc
	s.aux = func(m *telemetry.MemSnapshot, audit bool) {
		o := c.Ledger()
		if audit {
			o = c.Occupancy()
		}
		if lfrc {
			m.Lfrc = &o
		} else {
			m.Nodes = &o
		}
	}
	d := &List[T]{slotted: s}
	inst.bind(d.ledger)
	return d
}

// Compact completes the deque's deferred physical deletions on both
// ends now, freeing spliced-out nodes (and retired dummies) instead of
// leaving them to the next same-side operation.  Bounded deques run the
// same pass automatically before rejecting a push with ErrMemoryBound;
// calling it directly is useful before reading Mem at a quiescent point.
// Safe for concurrent use.
func (d *List[T]) Compact() { d.compact() }

var _ Deque[int] = (*List[int])(nil)
