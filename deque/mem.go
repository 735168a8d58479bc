package deque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/telemetry"
)

// ArenaStats is one internal arena's allocation ledger: the occupancy
// counters, with Live derived from them as
//
//	Live == Allocs − Frees − Retired
//
// plus the live high-water mark, the slab footprint and the verdict of a
// structural audit that checks Live against the arena's freelists or slot
// generations (see Conserved).  Snapshots taken while operations are in
// flight may straddle one (the counters are read individually); quiescent
// snapshots are exact.
//
// The counters are sums over the arena's two lanes, one per deque end.
// HighWater in reuse mode is the number of slots ever carved fresh: an
// allocation carves only when no freed slot is available, so on any
// quiescent history it equals the peak of Live, and under concurrency
// it is an upper bound on that peak.  In gc mode (no recycling) it is
// the maximum of Live observed at allocations.
type ArenaStats struct {
	Allocs    uint64 `json:"allocs"`          // successful allocations
	Frees     uint64 `json:"frees"`           // slots recycled through the freelist
	Retired   uint64 `json:"retired"`         // slots permanently retired (gc mode)
	Live      int64  `json:"live"`            // currently allocated slots: Allocs − Frees − Retired
	HighWater int64  `json:"high_water"`      // peak Live: slots carved (reuse mode), max Live (gc mode)
	Slabs     uint64 `json:"slabs"`           // storage blocks published (monotone)
	SlabBytes uint64 `json:"slab_bytes"`      // bytes held by published blocks
	SlotBytes uint64 `json:"slot_bytes"`      // per-slot footprint
	Cap       uint64 `json:"cap"`             // slot capacity
	Audit     string `json:"audit,omitempty"` // where the structure disagreed with Live; "" when it agreed
}

// RingStats is the Chase–Lev backend's ring-chain ledger.  Rings retire
// and never recycle, so conservation here is Rings == Retired + 1.
type RingStats struct {
	Rings   uint64 `json:"rings"`   // rings ever allocated
	Retired uint64 `json:"retired"` // rings retired behind the active one
	Cells   uint64 `json:"cells"`   // active ring's cell count
	Bytes   uint64 `json:"bytes"`   // bytes retained by the whole chain
}

// MemStats is a deque's memory-occupancy snapshot: the element-slot
// arena every backend has, plus whichever auxiliary structure the
// backend uses — list nodes (Nodes), LFRC reference-counted nodes
// (Lfrc), or the Chase–Lev ring chain (Rings).  Unused components are
// nil.
type MemStats struct {
	Slots ArenaStats  `json:"slots"`
	Nodes *ArenaStats `json:"nodes,omitempty"`
	Lfrc  *ArenaStats `json:"lfrc,omitempty"`
	Rings *RingStats  `json:"rings,omitempty"`
}

// Conserved checks every component's conservation invariant, returning
// nil when all hold: each arena's structural audit accounts for its Live,
// and the ring chain is whole.  Exact only on quiescent snapshots; see
// ArenaStats.
func (m MemStats) Conserved() error { return m.snapshot().Conserved() }

// LiveBytes estimates the bytes held live: live slots across every arena
// plus the retained ring chain.  This is the quantity WithMemoryBound
// budgets.
func (m MemStats) LiveBytes() uint64 { return m.snapshot().LiveBytes() }

// snapshot converts back to the internal representation the invariant
// logic is written against.
func (m MemStats) snapshot() telemetry.MemSnapshot {
	s := telemetry.MemSnapshot{Slots: arena.Occupancy(m.Slots)}
	if m.Nodes != nil {
		o := arena.Occupancy(*m.Nodes)
		s.Nodes = &o
	}
	if m.Lfrc != nil {
		o := arena.Occupancy(*m.Lfrc)
		s.Lfrc = &o
	}
	if m.Rings != nil {
		r := telemetry.RingCounts(*m.Rings)
		s.Rings = &r
	}
	return s
}

// memStatsOf converts an internal snapshot to the public mirror.
func memStatsOf(s telemetry.MemSnapshot) MemStats {
	m := MemStats{Slots: ArenaStats(s.Slots)}
	if s.Nodes != nil {
		o := ArenaStats(*s.Nodes)
		m.Nodes = &o
	}
	if s.Lfrc != nil {
		o := ArenaStats(*s.Lfrc)
		m.Lfrc = &o
	}
	if s.Rings != nil {
		r := RingStats(*s.Rings)
		m.Rings = &r
	}
	return m
}
