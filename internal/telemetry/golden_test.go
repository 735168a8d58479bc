package telemetry

import (
	"flag"
	"os"
	"strings"
	"testing"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/dcas"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current renderer")

// goldenDCAS runs attempts DCASes through the sink's instrumented
// provider on a fresh location pair, the last failures of them failing.
func goldenDCAS(s *Sink, attempts, failures int) {
	var a, b dcas.Loc
	dcas.AssignIDs(&a, &b)
	p := s.Instrument(dcas.Default())
	for i := 0; i < attempts; i++ {
		if i < attempts-failures {
			p.DCAS(&a, &b, 0, 0, 0, 0)
		} else {
			p.DCAS(&a, &b, 1, 1, 2, 2)
		}
	}
}

// goldenLatency records fixed durations into a sink's latency histograms
// without reading the clock: op always, spin when retries > 0.
func goldenLatency(s *Sink, end End, retries uint64, ns ...uint64) {
	for _, v := range ns {
		s.lat.op[end].Record(v)
		if retries != 0 {
			s.lat.spin[end].Record(v)
		}
	}
}

func goldenOccupancy(allocs, frees uint64, live int64) arena.Occupancy {
	return arena.Occupancy{Allocs: allocs, Frees: frees, Live: live, HighWater: live + 3,
		Slabs: 2, SlabBytes: 4096, SlotBytes: 16, Cap: 256}
}

// TestExpositionGolden pins the whole /metrics body for a fixed set of
// sources: an array deque with latency, an LFRC list deque, a Chase–Lev
// deque, a scheduler with latency and a two-tenant server, each filled
// with fixed values through the sink APIs.  Label order, family order
// and histogram folding must not drift; TestExpositionWellFormed only
// checks them structurally.  Run with -update to rewrite the golden file
// after a deliberate format change.
func TestExpositionGolden(t *testing.T) {
	registryMu.Lock()
	saved := registry
	registry = map[string]*entry{}
	registryMu.Unlock()
	defer func() {
		registryMu.Lock()
		registry = saved
		registryMu.Unlock()
	}()

	arr := NewSink().EnableLatency()
	for i := 0; i < 3; i++ {
		arr.Op(Left, Pushes, 0)
	}
	arr.Op(Right, Pops, 2)
	arr.Op(Left, EmptyHits, 0)
	arr.Op(Right, FullHits, 1)
	goldenLatency(arr, Left, 0, 90, 110, 250, 3000)
	goldenLatency(arr, Right, 2, 700, 1900)
	goldenLatency(arr, Right, 0, 40)
	goldenDCAS(arr, 9, 3)
	Register("golden_array", arr, func() MemSnapshot {
		return MemSnapshot{Slots: goldenOccupancy(12, 8, 4)}
	})

	lst := NewSink()
	lst.Op(Left, Pushes, 0)
	lst.Op(Right, Pushes, 1)
	lst.Op(Left, Pops, 0)
	lst.Add(Left, LogicalDeletes, 1)
	lst.Add(Right, PhysicalDeletes, 2)
	for i := 0; i < 4; i++ {
		lst.RefInc()
	}
	lst.RefDec()
	lst.RefDec()
	lst.RefFree()
	goldenDCAS(lst, 6, 1)
	nodes, lfrc := goldenOccupancy(30, 27, 3), goldenOccupancy(5, 4, 1)
	Register("golden_lfrc", lst, func() MemSnapshot {
		return MemSnapshot{Slots: goldenOccupancy(2, 1, 1), Nodes: &nodes, Lfrc: &lfrc}
	})

	cl := NewSink()
	cl.Op(Right, Pushes, 0)
	cl.Op(Right, Pushes, 0)
	cl.Op(Left, Pops, 1)
	cl.Add(Left, Pops, 3)
	cl.Add(Right, Grows, 2)
	Register("golden_chaselev", cl, func() MemSnapshot {
		return MemSnapshot{Slots: goldenOccupancy(5, 5, 0),
			Rings: &RingCounts{Rings: 3, Retired: 2, Cells: 64, Bytes: 1536}}
	})

	sc := NewSchedSink(2).EnableLatency()
	sc.Inc(0, SchedRuns)
	sc.Inc(0, SchedRuns)
	sc.Inc(1, SchedRuns)
	sc.Inc(0, SchedSpawns)
	sc.Add(1, SchedStolen, 3)
	sc.Inc(1, SchedSteals)
	sc.Inc(0, SchedStealFails)
	sc.Inc(1, SchedParks)
	sc.Inc(SchedExternal, SchedSubmits)
	sc.Inc(SchedExternal, SchedWakes)
	sc.Latency(0, SchedSubmitRun, 1500)
	sc.Latency(1, SchedSubmitRun, 260)
	sc.Latency(1, SchedStealRun, 80)
	sc.Latency(1, SchedParkWake, 4096)
	RegisterSched("golden_sched", sc)

	sv := NewServeSink([]string{"gold", "silver"})
	for i := 0; i < 3; i++ {
		sv.Inc(0, ServeReceived)
	}
	sv.Inc(0, ServeAccepted)
	sv.Inc(0, ServeAccepted)
	sv.Inc(0, ServeRejectedBusy)
	sv.Inc(0, ServeCompleted)
	sv.Inc(0, ServeAbandoned)
	sv.Inc(1, ServeReceived)
	sv.Inc(1, ServeRejectedDrain)
	sv.Stage(StageIngest, 2000)
	sv.Stage(StageIngest, 9000)
	sv.Stage(StageSubmit, 300)
	sv.Stage(StageRun, 120)
	sv.Stage(StageRespond, 5000)
	RegisterServe("golden_serve", sv)

	var b strings.Builder
	WritePrometheus(&b)
	const path = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("exposition differs from %s:\n%s", path, got)
	}
}
