package deque

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dcasdeque/internal/telemetry"
)

// TestStatsDisabled: without the telemetry options, Stats reports not-ok
// and the wrappers never touch a sink.
func TestStatsDisabled(t *testing.T) {
	d := NewArray[int](4)
	if err := d.PushRight(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Stats(); ok {
		t.Fatal("Stats ok on a deque built without WithTelemetry")
	}
	d.CloseTelemetry() // must be a safe no-op
	l := NewList[int]()
	if _, ok := l.Stats(); ok {
		t.Fatal("List Stats ok without WithTelemetry")
	}
	m := NewMutex[int](4)
	if _, ok := m.Stats(); ok {
		t.Fatal("Mutex Stats ok without WithTelemetry")
	}
}

// exercise runs a deterministic single-thread workload whose counter
// totals are known exactly.
func exercise(t *testing.T, d Deque[int]) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := d.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := d.PopLeft(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := d.PopRight(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PopRight(); err != ErrEmpty {
		t.Fatalf("pop of drained deque: %v", err)
	}
}

func checkExercised(t *testing.T, st Stats, wantDCAS bool) {
	t.Helper()
	if st.Right.Pushes != 10 || st.Left.Pushes != 4 {
		t.Fatalf("pushes = %d right / %d left, want 10/4", st.Right.Pushes, st.Left.Pushes)
	}
	if st.Left.Pops != 6 || st.Right.Pops != 8 {
		t.Fatalf("pops = %d left / %d right, want 6/8", st.Left.Pops, st.Right.Pops)
	}
	if st.Right.EmptyHits != 1 {
		t.Fatalf("right empty hits = %d, want 1", st.Right.EmptyHits)
	}
	if !wantDCAS {
		return
	}
	// 29 completed operations, each linearizing at one successful DCAS at
	// minimum (uncontended, so no failures are required — but attempts
	// must cover the operations).
	if st.DCAS.Attempts < 29 || st.DCAS.Successes < 29 {
		t.Fatalf("DCAS attempts/successes = %d/%d, want ≥ 29", st.DCAS.Attempts, st.DCAS.Successes)
	}
}

// completedOps is the sink's completed-operation total over both ends.
func completedOps(st Stats) uint64 {
	var n uint64
	for _, e := range []EndStats{st.Left, st.Right} {
		n += e.Pushes + e.Pops + e.FullHits + e.EmptyHits
	}
	return n
}

// TestStatsDCASMatchesOps cross-checks two independently counted layers.
// The DCAS aggregates are summed from the DCAS lanes, filled by the
// instrumented provider; the operation counters come from the cores'
// commit sites.  On an uncontended array
// history every operation — push, pop, full push and empty pop alike —
// issues exactly one DCAS, and none fails.
func TestStatsDCASMatchesOps(t *testing.T) {
	d := NewArray[int](8, WithTelemetry())
	for i := 0; i < 5; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := d.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PushLeft(9); err != ErrFull {
		t.Fatalf("push onto a full deque: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.PopLeft(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.PopRight(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PopRight(); err != ErrEmpty {
		t.Fatalf("pop of a drained deque: %v", err)
	}
	st, _ := d.Stats()
	if ops := completedOps(st); ops != 18 || st.DCAS.Attempts != ops {
		t.Fatalf("DCAS attempts = %d, completed ops = %d, want both 18", st.DCAS.Attempts, ops)
	}
	if st.DCAS.Failures != 0 || st.DCAS.Successes != st.DCAS.Attempts {
		t.Fatalf("uncontended history recorded DCAS failures: %+v", st.DCAS)
	}
}

// dcasLanes reads the deque's per-lane DCAS counts.
func (s *slotted[T]) dcasLanes() [telemetry.DCASLanes]telemetry.Counts {
	return s.inst.sink.Snapshot().Lanes
}

// TestStatsLocationsNameBothEnds: each end's anchor word keeps its end's
// DCAS traffic in a lane of its own, however lopsided the load.  After
// one end has pushed far more than the other, one lane holds at least the
// busy end's attempts and another at least the quiet end's: the busy end
// must not absorb the quiet end's count.
func TestStatsLocationsNameBothEnds(t *testing.T) {
	const busy, quiet = 200, 50
	for _, tc := range []struct {
		name string
		mk   func() Deque[int]
	}{
		{"array", func() Deque[int] { return NewArray[int](1024, WithTelemetry()) }},
		{"list", func() Deque[int] { return NewList[int](WithTelemetry()) }},
		{"dummy", func() Deque[int] { return NewList[int](WithDummyNodes(), WithTelemetry()) }},
		{"lfrc", func() Deque[int] { return NewList[int](WithLFRC(), WithTelemetry()) }},
	} {
		for _, busyLeft := range []bool{false, true} {
			name := tc.name + "/busy-right"
			if busyLeft {
				name = tc.name + "/busy-left"
			}
			t.Run(name, func(t *testing.T) {
				d := tc.mk()
				busyPush, quietPush := d.PushRight, d.PushLeft
				if busyLeft {
					busyPush, quietPush = d.PushLeft, d.PushRight
				}
				for i := 0; i < busy; i++ {
					if err := busyPush(i); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < quiet; i++ {
					if err := quietPush(i); err != nil {
						t.Fatal(err)
					}
				}
				lanes := d.(interface {
					dcasLanes() [telemetry.DCASLanes]telemetry.Counts
				}).dcasLanes()
				busyLane := -1
				for l, c := range lanes {
					if c[telemetry.DCASAttempts] >= busy {
						busyLane = l
					}
				}
				if busyLane < 0 {
					t.Fatalf("no lane holds the busy end's %d attempts: %v", busy, lanes)
				}
				for l, c := range lanes {
					if l != busyLane && c[telemetry.DCASAttempts] >= quiet {
						return
					}
				}
				t.Fatalf("no lane besides the busy end's holds the quiet end's %d attempts: %v", quiet, lanes)
			})
		}
	}
}

func TestStatsArray(t *testing.T) {
	d := NewArray[int](16, WithTelemetry())
	exercise(t, d)
	st, ok := d.Stats()
	if !ok {
		t.Fatal("Stats not ok with WithTelemetry")
	}
	checkExercised(t, st, true)
	// Full hits: capacity 2 overflows on the third push.
	small := NewArray[int](2, WithTelemetry())
	_ = small.PushRight(1)
	_ = small.PushRight(2)
	if err := small.PushRight(3); err != ErrFull {
		t.Fatalf("overfull push: %v", err)
	}
	sst, _ := small.Stats()
	if sst.Right.FullHits != 1 {
		t.Fatalf("full hits = %d, want 1", sst.Right.FullHits)
	}
}

func TestStatsListVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		ref  bool
	}{
		{"deleted-bit", nil, false},
		{"dummy", []Option{WithDummyNodes()}, false},
		{"lfrc", []Option{WithLFRC()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewList[int](append(tc.opts, WithTelemetry())...)
			exercise(t, d)
			st, ok := d.Stats()
			if !ok {
				t.Fatal("Stats not ok with WithTelemetry")
			}
			checkExercised(t, st, true)
			if st.Left.LogicalDeletes != st.Left.Pops || st.Right.LogicalDeletes != st.Right.Pops {
				t.Fatalf("logical deletes %d/%d != pops %d/%d",
					st.Left.LogicalDeletes, st.Right.LogicalDeletes, st.Left.Pops, st.Right.Pops)
			}
			// Every node eventually leaves the list through a physical splice.
			if tot := st.Left.PhysicalDeletes + st.Right.PhysicalDeletes; tot == 0 {
				t.Fatal("no physical deletes recorded")
			}
			if tc.ref && (st.Ref.Incs == 0 || st.Ref.Decs == 0 || st.Ref.Frees == 0) {
				t.Fatalf("LFRC ref counters empty: %+v", st.Ref)
			}
			if !tc.ref && st.Ref != (RefStats{}) {
				t.Fatalf("non-LFRC deque recorded ref events: %+v", st.Ref)
			}
		})
	}
}

func TestStatsMutex(t *testing.T) {
	d := NewMutex[int](16, WithTelemetry())
	exercise(t, d)
	st, ok := d.Stats()
	if !ok {
		t.Fatal("Stats not ok with WithTelemetry")
	}
	checkExercised(t, st, false)
	if st.DCAS.Attempts != 0 {
		t.Fatalf("mutex deque counted DCAS attempts: %d", st.DCAS.Attempts)
	}
}

// TestStatsContended: concurrent traffic on both ends must surface
// retries (the acceptance criterion: per-end DCAS retry counts visible
// through Stats).  The workload hammers a capacity-1 deque, where every
// operation crosses the boundary cell, so any goroutine preempted
// between its read and its DCAS fails that DCAS on resume.  When a
// retry lands is up to the scheduler (on one processor it takes a
// preemption mid-window), so batches repeat under a deadline until one
// is observed.
func TestStatsContended(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := NewArray[int](1, WithTelemetry())
	deadline := time.Now().Add(30 * time.Second)
	for {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					if w%2 == 0 {
						_ = d.PushRight(i)
						_, _ = d.PopRight()
					} else {
						_ = d.PushLeft(i)
						_, _ = d.PopLeft()
					}
				}
			}(w)
		}
		wg.Wait()
		st, _ := d.Stats()
		if st.Left.Retries+st.Right.Retries > 0 && st.DCAS.Failures > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retries or DCAS failures recorded under contention: %+v", st.DCAS)
		}
	}
}

// TestStatsLatency: WithLatency attaches per-end histograms whose op
// counts match the completed-operation totals, on every backend that
// supports the standard exercise.
func TestStatsLatency(t *testing.T) {
	build := map[string]func() Deque[int]{
		"array":      func() Deque[int] { return NewArray[int](16, WithLatency()) },
		"list":       func() Deque[int] { return NewList[int](WithLatency()) },
		"list-dummy": func() Deque[int] { return NewList[int](WithDummyNodes(), WithLatency()) },
		"list-lfrc":  func() Deque[int] { return NewList[int](WithLFRC(), WithLatency()) },
		"mutex":      func() Deque[int] { return NewMutex[int](16, WithLatency()) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			d := mk()
			exercise(t, d)
			st, ok := d.(interface{ Stats() (Stats, bool) }).Stats()
			if !ok {
				t.Fatal("Stats not ok with WithLatency (it implies WithTelemetry)")
			}
			checkExercised(t, st, name != "mutex")
			l := st.Latency
			if l == nil {
				t.Fatal("Stats.Latency nil with WithLatency")
			}
			// Every completed operation — successes and boundary hits alike —
			// records one op-latency sample at its flush.
			wantLeft := st.Left.Pushes + st.Left.Pops + st.Left.FullHits + st.Left.EmptyHits
			wantRight := st.Right.Pushes + st.Right.Pops + st.Right.FullHits + st.Right.EmptyHits
			if l.Left.Op.N != wantLeft || l.Right.Op.N != wantRight {
				t.Fatalf("op samples = %d/%d, want %d/%d (left/right)",
					l.Left.Op.N, l.Right.Op.N, wantLeft, wantRight)
			}
			// The spin histogram covers only the contended subpopulation.
			if l.Left.Spin.N > l.Left.Op.N || l.Right.Spin.N > l.Right.Op.N {
				t.Fatalf("spin samples exceed op samples: %+v", l)
			}
			if l.Left.Op.Max < l.Left.Op.Min || l.Left.Op.Sum == 0 {
				t.Fatalf("degenerate left op histogram: %+v", l.Left.Op)
			}
			if m := l.Left.Op.Mean(); m <= 0 {
				t.Fatalf("left op mean = %v", m)
			}
		})
	}
}

// TestStatsLatencyChaseLev: the owner/thief deque records latency on its
// supported operations, one sample per stolen element of a PopLMany
// batch, as every other backend records.
func TestStatsLatencyChaseLev(t *testing.T) {
	d := NewChaseLev[int](WithLatency())
	for i := 0; i < 10; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PopRight(); err != nil {
		t.Fatal(err)
	}
	if got := d.PopLMany(4); len(got) != 4 {
		t.Fatalf("PopLMany = %d items, want 4", len(got))
	}
	if err := d.PushLeft(0); err != ErrUnsupported {
		t.Fatalf("PushLeft: %v", err)
	}
	st, ok := d.Stats()
	if !ok || st.Latency == nil {
		t.Fatal("Stats/Latency missing with WithLatency")
	}
	// 10 pushes + 1 pop on the right; the 4-pop batch is four steals and
	// four latency samples on the left; the rejected PushLeft records none.
	if st.Latency.Right.Op.N != 11 {
		t.Fatalf("right op samples = %d, want 11", st.Latency.Right.Op.N)
	}
	if st.Latency.Left.Op.N != 4 {
		t.Fatalf("left op samples = %d, want 4 (one per stolen element)", st.Latency.Left.Op.N)
	}
}

// TestStatsLatencyAbsentWithoutOption: plain WithTelemetry must not grow
// histograms — the latency surface stays opt-in.
func TestStatsLatencyAbsentWithoutOption(t *testing.T) {
	d := NewArray[int](16, WithTelemetry())
	exercise(t, d)
	st, _ := d.Stats()
	if st.Latency != nil {
		t.Fatal("Stats.Latency present without WithLatency")
	}
}

// TestStatsExported: WithTelemetryName surfaces the deque, with its
// memory ledgers, through PrometheusHandler until CloseTelemetry.
func TestStatsExported(t *testing.T) {
	d := NewList[int](WithTelemetryName("exported-test"))
	defer d.CloseTelemetry()
	if err := d.PushRight(7); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		rec := httptest.NewRecorder()
		PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	body := scrape()
	// The exporter's DCAS series come from the same derived snapshot as
	// Stats().DCAS.
	st, _ := d.Stats()
	if st.DCAS.Attempts == 0 {
		t.Fatalf("Stats().DCAS = %+v, want attempts", st.DCAS)
	}
	for _, want := range []string{
		`dcasdeque_ops_total{deque="exported-test",end="right",counter="pushes"} 1` + "\n",
		fmt.Sprintf(`dcasdeque_dcas_total{deque="exported-test",event="attempts"} %d`+"\n", st.DCAS.Attempts),
		fmt.Sprintf(`dcasdeque_dcas_total{deque="exported-test",event="failures"} %d`+"\n", st.DCAS.Failures),
		`dcasdeque_arena_events_total{deque="exported-test",arena="slots",event="allocs"} 1` + "\n",
		`dcasdeque_arena_occupancy{deque="exported-test",arena="slots",gauge="live"} 1` + "\n",
		`dcasdeque_arena_occupancy{deque="exported-test",arena="nodes",gauge="live"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	d.CloseTelemetry()
	if strings.Contains(scrape(), `"exported-test"`) {
		t.Fatal("deque still exported after CloseTelemetry")
	}
}

// TestScrapeCostFlat: a scrape reads each registered deque's O(1)
// ledgers, so the bytes one WritePrometheus allocates do not grow with
// the deque's carved slots and nodes.  (The structural audit — a
// freelist walk with a bitmap of one bit per carved slot, per arena —
// belongs to Mem.)
func TestScrapeCostFlat(t *testing.T) {
	d := NewList[int](WithTelemetryName("scrape-cost"))
	defer d.CloseTelemetry()
	// The fewest bytes over a few scrapes into a pre-grown builder, so
	// neither the builder's growth nor another goroutine's allocation
	// counts.
	scrapeBytes := func() uint64 {
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			var b strings.Builder
			b.Grow(1 << 20)
			runtime.ReadMemStats(&before)
			telemetry.WritePrometheus(&b)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small := scrapeBytes()
	const n = 1 << 17 // an audit would allocate 2×n/8 = 32 KiB more
	for i := 0; i < n; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	if large := scrapeBytes(); large > small+8<<10 {
		t.Fatalf("one scrape allocated %d B with %d carved nodes, %d B with none", large, n, small)
	}
}
