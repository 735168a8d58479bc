package dcas_test

// The DCAS counts live in the telemetry sink's lanes; these tests drive
// them through the instrumented provider the sink hands out, so they sit
// in an external test package that may import telemetry.

import (
	"reflect"
	"sync"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/telemetry"
)

// dcasCounts reads a sink's DCAS snapshot counts.
func dcasCounts(s *telemetry.Sink) (attempts, failures, successes uint64) {
	c := s.Snapshot().DCAS
	return c[telemetry.DCASAttempts], c[telemetry.DCASFailures], c[telemetry.DCASSuccesses]
}

// TestStatsSnapshot: the aggregate counts are summed from the lanes, and
// the backoff counters are read from the sink's backoff Stats.
func TestStatsSnapshot(t *testing.T) {
	var a, b dcas.Loc
	a.Init(1)
	b.Init(2)
	s := telemetry.NewSink()
	p := s.Instrument(&dcas.TwoLock{})
	for i := 0; i < 7; i++ {
		p.DCAS(&a, &b, 1, 2, 1, 2) // success, values unchanged
	}
	for i := 0; i < 3; i++ {
		p.DCAS(&a, &b, 0, 0, 9, 9) // failure
	}
	s.Backoff().BackoffSpins.Add(40)
	s.Backoff().BackoffYields.Add(2)
	got := s.Snapshot().DCAS
	want := telemetry.Counts{10, 3, 7, 40, 2}
	if got != want {
		t.Fatalf("DCAS counts = %v, want %v (named %q)", got, want, telemetry.DCASNames)
	}
}

// TestSuccessesClamped: the lanes are loaded one counter at a time while
// DCASes keep adding to them, so a snapshot can see a failure whose
// attempt it loaded too early.  Successes must clamp at zero then, not
// wrap to ~2^64.  Every DCAS here fails, so only the clamp keeps the
// derived difference small.
func TestSuccessesClamped(t *testing.T) {
	var a, b dcas.Loc
	a.Init(1)
	b.Init(1)
	s := telemetry.NewSink()
	p := s.Instrument(&dcas.TwoLock{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.DCAS(&a, &b, 0, 0, 0, 0) // always fails: values are 1
				}
			}
		}()
	}
	for i := 0; i < 100000; i++ {
		if _, _, got := dcasCounts(s); got > 1<<32 {
			close(stop)
			wg.Wait()
			t.Fatalf("Successes wrapped: %d", got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAttrStats: the wrapped provider keeps DCAS and DCASView semantics
// and counts each call once, in the lane of its first location.
func TestAttrStats(t *testing.T) {
	var a, b dcas.Loc
	a.Init(1)
	b.Init(2)
	s := telemetry.NewSink()
	p := s.Instrument(&dcas.TwoLock{})

	if !p.DCAS(&a, &b, 1, 2, 10, 20) {
		t.Fatal("matching DCAS failed")
	}
	if p.DCAS(&a, &b, 1, 2, 11, 21) {
		t.Fatal("stale DCAS succeeded")
	}
	if _, _, ok := p.DCASView(&a, &b, 10, 20, 100, 200); !ok {
		t.Fatal("matching DCASView failed")
	}

	if att, fail, _ := dcasCounts(s); att != 3 || fail != 1 {
		t.Fatalf("aggregate = %d/%d, want 3/1", att, fail)
	}
	for l, c := range s.Snapshot().Lanes {
		want := telemetry.Counts{}
		if uint64(l) == telemetry.DCASLane(&a) {
			want = telemetry.Counts{3, 1}
		}
		if c != want {
			t.Fatalf("lane %d = %v, want %v (first location %d in lane %d)", l, c, want, a.ID(), telemetry.DCASLane(&a))
		}
	}
}

// TestAttrStatsConcurrent: concurrent counting into one lane loses no
// attempt and no failure.
func TestAttrStatsConcurrent(t *testing.T) {
	var a, b dcas.Loc
	a.Init(1)
	b.Init(1)
	s := telemetry.NewSink()
	p := s.Instrument(&dcas.TwoLock{})
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
	lane := s.Snapshot().Lanes[telemetry.DCASLane(&a)]
	if lane[telemetry.DCASAttempts] != workers*per || lane[telemetry.DCASFailures] != workers*per {
		t.Fatalf("lane of location %d = %v, want %d/%d", a.ID(), lane, workers*per, workers*per)
	}
}

// TestInstrumentedCounts: both Figure 1 forms are counted, failures
// included.
func TestInstrumentedCounts(t *testing.T) {
	s := telemetry.NewSink()
	p := s.Instrument(new(dcas.TwoLock))
	var a, b dcas.Loc
	a.Init(1)
	b.Init(2)

	p.DCAS(&a, &b, 1, 2, 3, 4)     // success
	p.DCAS(&a, &b, 1, 2, 0, 0)     // failure
	p.DCASView(&a, &b, 3, 4, 5, 6) // success
	p.DCASView(&a, &b, 0, 0, 9, 9) // failure

	att, fail, succ := dcasCounts(s)
	if att != 4 {
		t.Fatalf("attempts = %d, want 4", att)
	}
	if fail != 2 {
		t.Fatalf("failures = %d, want 2", fail)
	}
	if succ != 2 {
		t.Fatalf("successes = %d, want 2", succ)
	}
}

// TestLaneKey pins the lane key the anchor test restates: a DCAS counts
// in lane ID mod lanes of its first location.
func TestLaneKey(t *testing.T) {
	if telemetry.DCASLanes != lanes {
		t.Fatalf("telemetry.DCASLanes = %d, want %d: update lanes in lanes_test.go", telemetry.DCASLanes, lanes)
	}
	locs := make([]dcas.Loc, 3*lanes)
	ptrs := make([]*dcas.Loc, len(locs))
	for i := range locs {
		ptrs[i] = &locs[i]
	}
	dcas.AssignIDs(ptrs...)
	for _, l := range ptrs {
		if got := telemetry.DCASLane(l); got != l.ID()%lanes {
			t.Fatalf("DCASLane(id %d) = %d, want %d: update lanes in lanes_test.go", l.ID(), got, l.ID()%lanes)
		}
	}
}

// TestAttrStatsLanes: two anchors in different lanes each count their
// own DCASes, however many cells one of them sweeps: a DCAS counts only
// in its first location's lane, so a cell both ends touch adds nothing
// to the other end's lane.
func TestAttrStatsLanes(t *testing.T) {
	var l, r dcas.Loc
	dcas.AssignIDs(&l, &r)
	ll, rl := telemetry.DCASLane(&l), telemetry.DCASLane(&r)
	if ll == rl {
		t.Fatalf("anchors %d and %d share lane %d", l.ID(), r.ID(), ll)
	}
	s := telemetry.NewSink()
	p := s.Instrument(&dcas.TwoLock{})
	cells := make([]dcas.Loc, 256)
	for i := range cells {
		p.DCAS(&r, &cells[i], 0, 0, 0, 0) // right end sweeps every cell (all zero: succeeds)
	}
	for i := 0; i < 10; i++ {
		p.DCAS(&l, &cells[0], 0, 0, 0, 0) // left end shares one cell
	}
	per := s.Snapshot().Lanes
	if got := per[rl][telemetry.DCASAttempts]; got != uint64(len(cells)) {
		t.Fatalf("right lane attempts = %d, want %d", got, len(cells))
	}
	if got := per[ll][telemetry.DCASAttempts]; got != 10 {
		t.Fatalf("left lane attempts = %d, want 10: the right end's cells leaked into it", got)
	}
	if att, fail, _ := dcasCounts(s); att != uint64(len(cells))+10 || fail != 0 {
		t.Fatalf("aggregate = %d/%d, want %d attempts, none failed", att, fail, len(cells)+10)
	}
}

// TestAttrLaneLayout pins the geometry of the lanes a DCAS is counted
// in.  They are rows of the telemetry sink's DCAS bank, unexported
// there, so reflect reads their offsets: lane 0 starts a false-sharing
// range into the bank, clear of whatever the allocator places before
// it; each lane fills whole ranges, so adjacent lanes' counter blocks
// start a range apart; and the backoff counters start a range past the
// last lane.
func TestAttrLaneLayout(t *testing.T) {
	field := func(st reflect.Type, name string) reflect.StructField {
		t.Helper()
		f, ok := st.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %q", st, name)
		}
		return f
	}
	bank := field(reflect.TypeOf(telemetry.Sink{}), "dcas").Type.Elem()
	lanes := field(bank, "lanes")
	lane := lanes.Type.Elem()
	if lanes.Offset < dcas.FalseSharingRange {
		t.Fatalf("lane 0 starts %d bytes into the DCAS bank, want ≥ %d", lanes.Offset, dcas.FalseSharingRange)
	}
	if sz := lane.Size(); sz%dcas.FalseSharingRange != 0 {
		t.Fatalf("a DCAS lane is %d bytes, not a multiple of %d", sz, dcas.FalseSharingRange)
	}
	if used := field(lane, "c").Type.Size(); used > lane.Size() {
		t.Fatalf("lane counters (%d bytes) overrun the lane (%d bytes)", used, lane.Size())
	}
	last := lanes.Offset + uintptr(lanes.Type.Len()-1)*lane.Size()
	if gap := field(bank, "backoff").Offset - last; gap < dcas.FalseSharingRange {
		t.Fatalf("backoff counters start %d bytes after the last lane, want ≥ %d", gap, dcas.FalseSharingRange)
	}
}
