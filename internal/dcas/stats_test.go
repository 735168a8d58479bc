package dcas

import (
	"sync"
	"testing"
)

// TestStatsSnapshot: the aggregate counts are derived from the per-slot
// counters, and the backoff counters are read from the embedded Stats.
func TestStatsSnapshot(t *testing.T) {
	var a, b Loc
	a.Init(1)
	b.Init(2)
	var st AttrStats
	p := InstrumentedAttr(&TwoLock{}, &st)
	for i := 0; i < 7; i++ {
		p.DCAS(&a, &b, 1, 2, 1, 2) // success, values unchanged
	}
	for i := 0; i < 3; i++ {
		p.DCAS(&a, &b, 0, 0, 9, 9) // failure
	}
	st.BackoffSpins.Add(40)
	st.BackoffYields.Add(2)
	sn := st.Snapshot()
	want := Snapshot{Attempts: 10, Failures: 3, Successes: 7, BackoffSpins: 40, BackoffYields: 2}
	if sn != want {
		t.Fatalf("Snapshot = %+v, want %+v", sn, want)
	}
}

// TestSuccessesClamped pins the underflow fix: when a Reset lands between
// the attempts and failures loads, failures can exceed attempts and the
// difference must clamp to zero, not wrap to ~2^64.
func TestSuccessesClamped(t *testing.T) {
	var st AttrStats
	// Reproduce the interleaving directly: the reader has loaded the
	// attempts (zeroed by Reset) while a slot's failures still hold a
	// pre-Reset value — equivalent to failures > attempts at the instant
	// of the second load.
	st.lane(1).slot(1).failures.Add(10)
	if sn := st.Snapshot(); sn.Failures <= sn.Attempts || sn.Successes != 0 {
		t.Fatalf("Snapshot with failures > attempts = %+v, want Successes 0", sn)
	}

	// And hammer the race for real: concurrent Resets while a reader
	// snapshots must never observe a wrapped value.
	st.Reset()
	var a, b Loc
	a.Init(1)
	b.Init(1)
	p := InstrumentedAttr(&TwoLock{}, &st)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
				st.Reset()
			}
		}
	}()
	for i := 0; i < 100000; i++ {
		if got := st.Snapshot().Successes; got > 1<<32 {
			close(stop)
			wg.Wait()
			t.Fatalf("Successes wrapped: %d", got)
		}
	}
	close(stop)
	wg.Wait()
}

func TestAttrStats(t *testing.T) {
	var a, b Loc
	a.Init(1)
	b.Init(2)
	var st AttrStats
	p := InstrumentedAttr(&TwoLock{}, &st)

	if !p.DCAS(&a, &b, 1, 2, 10, 20) {
		t.Fatal("matching DCAS failed")
	}
	if p.DCAS(&a, &b, 1, 2, 11, 21) {
		t.Fatal("stale DCAS succeeded")
	}
	if _, _, ok := p.DCASView(&a, &b, 10, 20, 100, 200); !ok {
		t.Fatal("matching DCASView failed")
	}

	if sn := st.Snapshot(); sn.Attempts != 3 || sn.Failures != 1 {
		t.Fatalf("aggregate = %d/%d, want 3/1", sn.Attempts, sn.Failures)
	}
	per := st.PerLocation()
	if len(per) != 2 {
		t.Fatalf("PerLocation returned %d entries, want 2: %+v", len(per), per)
	}
	ids := map[uint64]LocStats{per[0].ID: per[0], per[1].ID: per[1]}
	for _, l := range []*Loc{&a, &b} {
		got, ok := ids[l.ID()]
		if !ok {
			t.Fatalf("location %d missing from %+v", l.ID(), per)
		}
		if got.Attempts != 3 || got.Failures != 1 {
			t.Fatalf("location %d = %d/%d, want 3/1", l.ID(), got.Attempts, got.Failures)
		}
	}
	if per[0].ID >= per[1].ID {
		t.Fatalf("PerLocation not sorted by ID: %+v", per)
	}

	st.Reset()
	if st.Snapshot().Attempts != 0 {
		t.Fatal("aggregate survived Reset")
	}
	for _, l := range st.PerLocation() {
		if l.Attempts != 0 || l.Failures != 0 {
			t.Fatalf("attribution survived Reset: %+v", l)
		}
	}
}

// TestAttrStatsOverflow: more distinct locations than the lanes have
// slots must fold into the overflow buckets without losing counts.
func TestAttrStatsOverflow(t *testing.T) {
	var st AttrStats
	p := InstrumentedAttr(&TwoLock{}, &st)
	const locs = attrLanes*attrSlots + 16
	pairs := make([]Loc, 2*locs)
	total := uint64(0)
	for i := 0; i < locs; i++ {
		a, b := &pairs[2*i], &pairs[2*i+1]
		a.Init(1)
		b.Init(2)
		if !p.DCAS(a, b, 1, 2, 1, 2) {
			t.Fatal("DCAS failed")
		}
		total += 2 // each DCAS attributed to both locations
	}
	per := st.PerLocation()
	sum := uint64(0)
	sawOverflow := false
	for _, l := range per {
		sum += l.Attempts
		if l.ID == 0 {
			sawOverflow = true
			if l.Attempts == 0 {
				t.Fatal("empty overflow bucket reported")
			}
		}
	}
	if sum != total {
		t.Fatalf("attributed %d attempts, want %d", sum, total)
	}
	if !sawOverflow {
		t.Fatalf("%d locations through %d slots produced no overflow", 2*locs, attrLanes*attrSlots)
	}
	if sn := st.Snapshot(); sn.Attempts != locs {
		t.Fatalf("derived attempts = %d, want %d", sn.Attempts, locs)
	}
}

// TestAttrStatsConcurrent: concurrent slot claiming must neither lose
// counts nor duplicate a location across slots.
func TestAttrStatsConcurrent(t *testing.T) {
	var a, b Loc
	a.Init(1)
	b.Init(1)
	var st AttrStats
	p := InstrumentedAttr(&TwoLock{}, &st)
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
			}
		}()
	}
	wg.Wait()
	locs := st.PerLocation()
	if len(locs) != 2 {
		t.Fatalf("PerLocation = %+v, want 2 entries", locs)
	}
	for _, l := range locs {
		if l.Attempts != workers*per || l.Failures != workers*per {
			t.Fatalf("location %d = %d/%d, want %d/%d", l.ID, l.Attempts, l.Failures, workers*per, workers*per)
		}
	}
}

// PerLocation has the same Reset race as Stats.Successes: a concurrent
// Reset can zero a slot's attempts between the two loads, leaving its
// failures momentarily larger.  The per-location counters must clamp
// rather than report failures > attempts (regression: they used to be
// returned raw).
func TestPerLocationClampsResetRace(t *testing.T) {
	var st AttrStats

	// Model the mid-Reset state directly: attempts already zeroed,
	// failures not yet.  The overflow bucket is reported as the sum over
	// lanes, so its attempts and failures sit in different lanes.
	s := st.lane(7).slot(7)
	s.failures.Add(3)
	st.lane(0).overflow.attempts.Add(2)
	st.lane(1).overflow.failures.Add(5)

	locs := st.PerLocation()
	if len(locs) != 2 {
		t.Fatalf("PerLocation = %+v, want slot 7 and the overflow bucket", locs)
	}
	for _, l := range locs {
		if l.Failures > l.Attempts {
			t.Fatalf("location %d reports failures %d > attempts %d (unclamped)",
				l.ID, l.Failures, l.Attempts)
		}
	}
	if locs[0].ID != 7 || locs[0].Attempts != 0 || locs[0].Failures != 0 {
		t.Fatalf("slot 7 = %+v, want failures clamped to attempts = 0", locs[0])
	}
	if locs[1].ID != 0 || locs[1].Failures != 2 {
		t.Fatalf("overflow = %+v, want failures clamped to attempts = 2", locs[1])
	}

	// And under a live Reset storm no snapshot may ever underflow.
	var a, b Loc
	a.Init(1)
	b.Init(1)
	p := InstrumentedAttr(&TwoLock{}, &st)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				st.Reset()
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		for _, l := range st.PerLocation() {
			if l.Failures > l.Attempts {
				close(done)
				wg.Wait()
				t.Fatalf("location %d: failures %d > attempts %d under Reset race",
					l.ID, l.Failures, l.Attempts)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestLaneKey pins the lane key the external anchor test restates.
func TestLaneKey(t *testing.T) {
	for id := uint64(1); id < 3*attrLanes; id++ {
		if got := laneOf(id); got != id%4 {
			t.Fatalf("laneOf(%d) = %d, want %d: update lanes in lanes_test.go", id, got, id%4)
		}
	}
}

// TestAttrStatsLanes: two anchors in different lanes each keep their
// home slot however many cells they are paired with, a miss past the
// probe bound folds into the anchor's own lane, and a cell counted in
// both lanes is reported once with its counts merged.
func TestAttrStatsLanes(t *testing.T) {
	var l, r Loc
	AssignIDs(&l, &r)
	if laneOf(l.ID()) == laneOf(r.ID()) {
		t.Fatalf("anchors %d and %d share lane %d", l.ID(), r.ID(), laneOf(l.ID()))
	}
	var st AttrStats
	p := InstrumentedAttr(&TwoLock{}, &st)
	cells := make([]Loc, 4*attrSlots)
	for i := range cells {
		p.DCAS(&r, &cells[i], 0, 0, 0, 0) // right end sweeps every cell (all zero: succeeds)
	}
	for i := 0; i < 10; i++ {
		p.DCAS(&l, &cells[0], 0, 0, 0, 0) // left end shares one cell
	}
	if n := len(cells); st.lane(r.ID()).overflow.attempts.Load() == 0 {
		t.Fatalf("%d cells through one lane produced no overflow", n)
	}
	if got := st.lane(l.ID()).overflow.attempts.Load(); got != 0 {
		t.Fatalf("left lane overflow = %d, want 0: the right end's misses leaked into it", got)
	}
	per := map[uint64]LocStats{}
	for _, ls := range st.PerLocation() {
		if _, dup := per[ls.ID]; dup {
			t.Fatalf("location %d reported twice", ls.ID)
		}
		per[ls.ID] = ls
	}
	if got := per[r.ID()].Attempts; got != uint64(len(cells)) {
		t.Fatalf("right anchor attempts = %d, want %d", got, len(cells))
	}
	if got := per[l.ID()].Attempts; got != 10 {
		t.Fatalf("left anchor attempts = %d, want 10", got)
	}
	if got := per[cells[0].ID()].Attempts; got != 11 {
		t.Fatalf("shared cell attempts = %d, want 11 merged across lanes", got)
	}
	if sn := st.Snapshot(); sn.Attempts != uint64(len(cells))+10 || sn.Failures != 0 {
		t.Fatalf("derived aggregate = %+v, want %d attempts, none failed", sn, len(cells)+10)
	}
}
