package dcas

import (
	"sort"
	"sync/atomic"
	"unsafe"
)

// Per-location DCAS attribution.
//
// The aggregate counts answer "how contended is this deque", but the
// paper's algorithms are asymmetric by construction: the array deque's
// left and right end words are deliberately far apart (Section 3), and a
// retry storm on one end says something different from uniform pressure
// across the cells.  AttrStats splits attempt/failure counts by the
// location words a DCAS touched, keyed by each Loc's ordering token
// (Loc.ID), so a report can say "94% of failures hit location 2 — the
// right end word".
//
// The counts live in lanes, so that recording them does not couple the
// two deque ends the algorithm keeps apart.  A DCAS is counted in the
// lane of its first location, and every array and list core passes the
// operating end's anchor word first (the end index, or the sentinel's
// inner pointer).  AssignIDs gives a constructor's locations consecutive
// tokens, so the two anchors of one deque land in different lanes and
// each end counts into padded state of its own.
//
// Each lane is a fixed-size, lock-free, insert-only open-addressed map:
// a slot is claimed by CASing its id from 0, and counters are plain
// atomic adds thereafter.  A lookup probes at most attrProbe slots;
// a location that finds none of them folds into the lane's overflow
// bucket — attribution degrades, it never blocks, allocates, or scans
// the table on the DCAS path.  An end's anchor is normally the first
// location its lane sees, so it holds its home slot and stays named
// however many cells that end touches.
//
// There are no separate aggregate counters: every DCAS adds to exactly
// two entries of one lane, so the aggregate attempts and failures are
// half the sums over all slots and overflow buckets (Snapshot).

const (
	// attrLanes is the number of lanes; a power of two.  Four separates
	// the anchors of every backend: the array deque's end words get
	// consecutive tokens, the list sentinels' inner pointers are two
	// (plain, dummy) or three (LFRC) tokens apart.
	attrLanes = 4
	// attrSlots is the size of one lane's table.  The interesting
	// attribution targets are end words and a modest number of hot
	// cells.
	attrSlots = 64
	// attrProbe bounds a lookup: a miss costs this many loads on the
	// lane's own lines, then an add to its overflow bucket.
	attrProbe = 8
)

// laneOf selects the lane for a DCAS whose first location has token id.
func laneOf(id uint64) uint64 { return id & (attrLanes - 1) }

// attrSlot is one location's counters.
type attrSlot struct {
	id       atomic.Uint64
	attempts atomic.Uint64
	failures atomic.Uint64
}

// attrLaneBytes is the written part of an attrLane.
const attrLaneBytes = (attrSlots + 1) * unsafe.Sizeof(attrSlot{})

// attrLane is one lane's table and overflow bucket.  The trailing pad
// rounds the lane up to whole cache lines and keeps the next lane's first
// slot a false-sharing range away from this lane's overflow bucket.
type attrLane struct {
	slots    [attrSlots]attrSlot
	overflow attrSlot
	_        [FalseSharingRange + (CacheLineBytes-attrLaneBytes%CacheLineBytes)%CacheLineBytes]byte
}

// AttrStats counts DCAS attempts and failures per location, in lanes.
// Use InstrumentedAttr to produce a provider that fills one in, and
// Snapshot for the aggregate counts.  The zero value is ready to use.
type AttrStats struct {
	//dequevet:contended per-lane attribution tables, each written by the DCASes anchored there
	lane0, lane1, lane2, lane3 attrLane
	// Stats receives the backoff counters when a BackoffPolicy points
	// at it.  They are written only after a lost race, so they share
	// the last lane's padding.
	Stats
}

// lanes lists every lane.
func (st *AttrStats) lanes() [attrLanes]*attrLane {
	return [attrLanes]*attrLane{&st.lane0, &st.lane1, &st.lane2, &st.lane3}
}

// lane returns the lane for a DCAS whose first location has token id.
func (st *AttrStats) lane(id uint64) *attrLane { return st.lanes()[laneOf(id)] }

// slot returns the counter slot for a location token, claiming a free
// slot on first sight and folding into the overflow bucket when the
// probe window holds neither the token nor a free slot.
func (ln *attrLane) slot(id uint64) *attrSlot {
	h := (id * 0x9e3779b97f4a7c15) >> (64 - 6) // fibonacci hash into [0,64)
	for probe := uint64(0); probe < attrProbe; probe++ {
		s := &ln.slots[(h+probe)&(attrSlots-1)]
		got := s.id.Load()
		if got == id {
			return s
		}
		if got == 0 && s.id.CompareAndSwap(0, id) {
			return s
		}
		if s.id.Load() == id { // lost the claim race to our own id
			return s
		}
	}
	return &ln.overflow
}

// record counts one DCAS against both locations it touched, in the lane
// of the first.
func (st *AttrStats) record(a1, a2 *Loc, failed bool) {
	id1 := a1.ID()
	ln := st.lane(id1)
	s1, s2 := ln.slot(id1), ln.slot(a2.ID())
	s1.attempts.Add(1)
	s2.attempts.Add(1)
	if failed {
		s1.failures.Add(1)
		s2.failures.Add(1)
	}
}

// Snapshot returns the aggregate counts: attempts and failures are half
// the sums over every slot and overflow bucket, the backoff counters
// are read from Stats.  The contract is Snapshot's: exact at quiescence,
// unsynchronized otherwise, Successes clamped at zero.
func (st *AttrStats) Snapshot() Snapshot {
	var attempts, failures uint64
	for _, ln := range st.lanes() {
		for i := range ln.slots {
			attempts += ln.slots[i].attempts.Load()
			failures += ln.slots[i].failures.Load()
		}
		attempts += ln.overflow.attempts.Load()
		failures += ln.overflow.failures.Load()
	}
	sn := Snapshot{
		Attempts:      attempts / 2,
		Failures:      failures / 2,
		BackoffSpins:  st.BackoffSpins.Load(),
		BackoffYields: st.BackoffYields.Load(),
	}
	if sn.Failures <= sn.Attempts {
		sn.Successes = sn.Attempts - sn.Failures
	}
	return sn
}

// LocStats is one location's attributed counts, in plain values.
type LocStats struct {
	// ID is the location's ordering token (Loc.ID); 0 identifies the
	// overflow bucket.
	ID       uint64 `json:"id"`
	Attempts uint64 `json:"attempts"`
	Failures uint64 `json:"failures"`
}

// PerLocation returns the attributed counts, sorted by location token,
// with the overflow buckets' sum (ID 0) appended when it is non-empty.
// A location counted in several lanes (a cell both ends touched) is
// reported once with its counts merged.  Reads are unsynchronized, with
// the same contract as Snapshot: a concurrent Reset can zero a slot's
// attempts between the two loads and leave its failures momentarily
// larger, so each location's failures are clamped to its attempts — the
// same underflow guard Snapshot.Successes applies to the aggregate pair.
func (st *AttrStats) PerLocation() []LocStats {
	var out []LocStats
	var over LocStats
	for _, ln := range st.lanes() {
		for i := range ln.slots {
			s := &ln.slots[i]
			if id := s.id.Load(); id != 0 {
				out = append(out, LocStats{ID: id, Attempts: s.attempts.Load(), Failures: s.failures.Load()})
			}
		}
		over.Attempts += ln.overflow.attempts.Load()
		over.Failures += ln.overflow.failures.Load()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	merged := out[:0]
	for _, l := range out {
		if n := len(merged); n > 0 && merged[n-1].ID == l.ID {
			merged[n-1].Attempts += l.Attempts
			merged[n-1].Failures += l.Failures
			continue
		}
		merged = append(merged, l)
	}
	if over.Attempts != 0 {
		merged = append(merged, over)
	}
	for i := range merged {
		merged[i].Failures = min(merged[i].Failures, merged[i].Attempts)
	}
	return merged
}

// Reset zeroes the backoff counters and every attribution slot (claimed
// slots keep their location identity).
func (st *AttrStats) Reset() {
	st.Stats.Reset()
	for _, ln := range st.lanes() {
		for i := range ln.slots {
			ln.slots[i].attempts.Store(0)
			ln.slots[i].failures.Store(0)
		}
		ln.overflow.attempts.Store(0)
		ln.overflow.failures.Store(0)
	}
}

// InstrumentedAttr wraps a Provider so that every DCAS is counted in st
// and attributed to both locations it touched.  The wrapped provider is
// otherwise semantically identical.
func InstrumentedAttr(p Provider, st *AttrStats) Provider {
	return &instrumentedAttr{p: p, st: st}
}

type instrumentedAttr struct {
	p  Provider
	st *AttrStats
}

func (i *instrumentedAttr) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	ok := i.p.DCAS(a1, a2, o1, o2, n1, n2)
	i.st.record(a1, a2, !ok)
	return ok
}

func (i *instrumentedAttr) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (uint64, uint64, bool) {
	v1, v2, ok := i.p.DCASView(a1, a2, o1, o2, n1, n2)
	i.st.record(a1, a2, !ok)
	return v1, v2, ok
}
