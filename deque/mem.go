package deque

import (
	"fmt"

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

// admitMem is the WithMemoryBound admission check shared by the push
// paths: over budget, try compaction (compact may be nil when the
// backend has nothing to give back), then re-check and reject.  The
// check runs before the element is boxed, so a rejected push allocates
// nothing.  Concurrent pushes admit against the same counters without
// mutual exclusion, so the bound can be overshot by at most one
// in-flight push per concurrent pusher — a policy limit, not a safety
// line.
func admitMem(bound uint64, liveBytes func() uint64, need uint64, compact func()) error {
	if liveBytes()+need <= bound {
		return nil
	}
	if compact != nil {
		compact()
		if liveBytes()+need <= bound {
			return nil
		}
	}
	return ErrMemoryBound
}

// --- per-backend Mem and bound wiring ---

// Mem returns the deque's memory-occupancy snapshot.  Always available,
// independent of the telemetry options.
func (d *Array[T]) Mem() MemStats { return memStatsOf(d.memSnapshot()) }

func (d *Array[T]) memSnapshot() telemetry.MemSnapshot {
	return telemetry.MemSnapshot{Slots: d.slots.Occupancy()}
}

func (d *Array[T]) liveBytes() uint64 {
	return uint64(d.slots.Live()) * d.slots.SlotBytes()
}

// admit applies the memory bound, if armed, before a push boxes its
// element.  The array deque has no compaction step: its cell storage is
// fixed and its slots recycle immediately on pop.
func (d *Array[T]) admit() error {
	if d.bound == 0 {
		return nil
	}
	return admitMem(d.bound, d.liveBytes, d.slots.SlotBytes(), nil)
}

// Mem returns the deque's memory-occupancy snapshot.  Always available,
// independent of the telemetry options.
func (d *List[T]) Mem() MemStats { return memStatsOf(d.memSnapshot()) }

func (d *List[T]) memSnapshot() telemetry.MemSnapshot {
	m := telemetry.MemSnapshot{Slots: d.slots.Occupancy()}
	no := d.core.Occupancy()
	if d.lfrc {
		m.Lfrc = &no
	} else {
		m.Nodes = &no
	}
	return m
}

func (d *List[T]) liveBytes() uint64 {
	return uint64(d.slots.Live())*d.slots.SlotBytes() + uint64(d.core.LiveNodes())*d.nodeBytes
}

// admit applies the memory bound, if armed.  Over budget the list deque
// compacts first: completing the deferred physical deletions frees the
// spliced-out nodes (and, in the dummy representation, retired dummies)
// that pops left behind.
func (d *List[T]) admit() error {
	if d.bound == 0 {
		return nil
	}
	need := d.slots.SlotBytes() + d.nodeBytes
	return admitMem(d.bound, d.liveBytes, need, d.core.Compact)
}

// Mem returns the deque's memory-occupancy snapshot.  Always available,
// independent of the telemetry options.
func (d *ChaseLev[T]) Mem() MemStats { return memStatsOf(d.memSnapshot()) }

func (d *ChaseLev[T]) memSnapshot() telemetry.MemSnapshot {
	r := d.core.Rings()
	return telemetry.MemSnapshot{Slots: d.slots.Occupancy(), Rings: &r}
}

func (d *ChaseLev[T]) liveBytes() uint64 {
	return uint64(d.slots.Live())*d.slots.SlotBytes() + d.core.Rings().Bytes
}

// admit applies the memory bound, if armed.  Rings retire and never
// shrink, so there is no compaction; the retained chain simply counts
// against the budget.
func (d *ChaseLev[T]) admit() error {
	if d.bound == 0 {
		return nil
	}
	return admitMem(d.bound, d.liveBytes, d.slots.SlotBytes(), nil)
}

// Mem returns the deque's memory-occupancy snapshot.  The mutex baseline
// has no internal arena; its wrapper-level slot ledger is reported in
// the same shape (one slab: the slot array allocated at construction).
func (d *Mutex[T]) Mem() MemStats { return memStatsOf(d.memSnapshot()) }

func (d *Mutex[T]) memSnapshot() telemetry.MemSnapshot {
	o := arena.Occupancy{
		Frees:     d.memFrees.Load(),
		HighWater: d.memHW.Load(),
		Slabs:     1,
		SlabBytes: uint64(len(d.slots)) * d.slotBytes,
		SlotBytes: d.slotBytes,
		Cap:       uint64(len(d.slots)),
	}
	o.Allocs = d.memAllocs.Load() // after the frees, as in memLive
	o.Live = int64(o.Allocs - o.Frees)
	// The audit: every slot is either on the free channel or held.
	if held := int64(len(d.slots) - len(d.free)); held != o.Live {
		o.Audit = fmt.Sprintf("%d slots, %d free, so %d held, but live=%d",
			len(d.slots), len(d.free), held, o.Live)
	}
	return telemetry.MemSnapshot{Slots: o}
}

func (d *Mutex[T]) liveBytes() uint64 {
	return uint64(d.memLive()) * d.slotBytes
}

// admit applies the memory bound, if armed; the mutex baseline has no
// compaction step.
func (d *Mutex[T]) admit() error {
	if d.bound == 0 {
		return nil
	}
	return admitMem(d.bound, d.liveBytes, d.slotBytes, nil)
}
