package telemetry

// Memory-occupancy telemetry: per-deque attribution of the arena and LFRC
// allocation ledgers (live/free/retired counts, high-water marks, slab
// footprint) plus the Chase–Lev ring chain.  A MemSnapshot is produced on
// demand by the component that owns the arenas (the deque wrappers pass a
// snapshot callback to Register), so the exporter never reaches into live
// structures itself.

import (
	"fmt"

	"dcasdeque/internal/arena"
)

// RingCounts describes a Chase–Lev backend's ring chain.  Rings are grown
// by doubling and retired — never recycled — so the chain's conservation
// invariant is Rings == Retired + 1 (the active ring).
type RingCounts struct {
	Rings   uint64 `json:"rings"`   // rings ever allocated (grows + 1)
	Retired uint64 `json:"retired"` // rings retired to the chain
	Cells   uint64 `json:"cells"`   // cell count of the active ring
	Bytes   uint64 `json:"bytes"`   // bytes retained by the whole chain
}

// Conserved checks the ring chain's conservation invariant.
func (r RingCounts) Conserved() error {
	if r.Rings != r.Retired+1 {
		return fmt.Errorf("rings: conservation violated: rings=%d retired=%d (want rings == retired+1)",
			r.Rings, r.Retired)
	}
	return nil
}

// MemSnapshot is one deque's memory-occupancy snapshot: the element-slot
// arena every backend has, plus whichever auxiliary structure the backend
// uses (list-node arena, LFRC object pool, or Chase–Lev ring chain).
type MemSnapshot struct {
	Slots arena.Occupancy  `json:"slots"`
	Nodes *arena.Occupancy `json:"nodes,omitempty"`
	Lfrc  *arena.Occupancy `json:"lfrc,omitempty"`
	Rings *RingCounts      `json:"rings,omitempty"`
}

// Conserved checks every component ledger's conservation invariant (each
// arena's structural audit accounts for its Live; rings == retired+1 for
// the ring chain).  Exact only on quiescent snapshots.
func (m MemSnapshot) Conserved() error {
	if err := m.Slots.Conserved(); err != nil {
		return fmt.Errorf("slots: %w", err)
	}
	if m.Nodes != nil {
		if err := m.Nodes.Conserved(); err != nil {
			return fmt.Errorf("nodes: %w", err)
		}
	}
	if m.Lfrc != nil {
		if err := m.Lfrc.Conserved(); err != nil {
			return fmt.Errorf("lfrc: %w", err)
		}
	}
	if m.Rings != nil {
		if err := m.Rings.Conserved(); err != nil {
			return err
		}
	}
	return nil
}

// LiveBytes estimates the bytes held live by the deque: live slots across
// every arena plus the retained ring chain.
func (m MemSnapshot) LiveBytes() uint64 {
	b := m.Slots.LiveBytes()
	if m.Nodes != nil {
		b += m.Nodes.LiveBytes()
	}
	if m.Lfrc != nil {
		b += m.Lfrc.LiveBytes()
	}
	if m.Rings != nil {
		b += m.Rings.Bytes
	}
	return b
}
