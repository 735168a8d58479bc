package telemetry

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestSchedBlockPadding: each worker's row and the external row are
// padded to whole false-sharing ranges, so adjacent rows in the slice
// never share a line — the same layout contract padlayout enforces for
// the deque Sink's shard rows.
func TestSchedBlockPadding(t *testing.T) {
	sc := NewSchedSink(2)
	apart(t, "sched worker rows", unsafe.Pointer(&sc.rows[0]), unsafe.Pointer(&sc.rows[1]))
	apart(t, "sched worker/external", unsafe.Pointer(&sc.rows[1]), unsafe.Pointer(sc.row(SchedExternal)))
}

func TestSchedSinkCounts(t *testing.T) {
	s := NewSchedSink(3)
	s.Inc(0, SchedRuns)
	s.Inc(0, SchedRuns)
	s.Inc(1, SchedSteals)
	s.Add(1, SchedStolen, 4)
	s.Inc(2, SchedParks)
	s.Inc(SchedExternal, SchedSubmits)
	s.Inc(SchedExternal, SchedWakes)
	s.Add(2, SchedStealFails, 0) // no-op

	sn := s.Snapshot()
	if sn.Workers[0][SchedRuns] != 2 || sn.Workers[1][SchedSteals] != 1 ||
		sn.Workers[1][SchedStolen] != 4 || sn.Workers[2][SchedParks] != 1 {
		t.Fatalf("per-worker counts wrong: %+v", sn.Workers)
	}
	if sn.External[SchedSubmits] != 1 || sn.External[SchedWakes] != 1 {
		t.Fatalf("external counts wrong: %+v", sn.External)
	}
	tot := sn.Total
	if tot[SchedRuns] != 2 || tot[SchedStolen] != 4 || tot[SchedSubmits] != 1 ||
		tot[SchedWakes] != 1 || tot[SchedStealFails] != 0 {
		t.Fatalf("totals wrong: %+v", sn.Total)
	}
}

// External-bank recording is multi-writer; per-worker banks are
// single-writer.  Exercise both shapes under the race detector.
func TestSchedSinkConcurrent(t *testing.T) {
	s := NewSchedSink(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(w, SchedRuns)
				s.Inc(SchedExternal, SchedSubmits)
			}
		}(w)
	}
	wg.Wait()
	sn := s.Snapshot()
	if sn.Total[SchedRuns] != 4000 || sn.External[SchedSubmits] != 4000 {
		t.Fatalf("lost updates: %+v", sn.Total)
	}
}

func TestSchedExporter(t *testing.T) {
	s := NewSchedSink(2)
	s.Inc(0, SchedRuns)
	s.Inc(1, SchedSteals)
	s.Add(1, SchedStolen, 3)
	s.Inc(SchedExternal, SchedSubmits)
	unregister := RegisterSched("test_exporter_sched", s)
	defer unregister()

	body := scrape(t)
	for _, want := range []string{
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="0",event="runs"} 1`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="1",event="runs"} 0`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="1",event="steals"} 1`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="1",event="stolen"} 3`,
		`dcasdeque_sched_events_total{sched="test_exporter_sched",worker="external",event="submits"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Two workers plus the external bank, one series per counter each.
	if got, want := strings.Count(body, `{sched="test_exporter_sched",worker=`), 3*int(NumSchedCounters); got != want {
		t.Errorf("%d scheduler event series, want %d:\n%s", got, want, body)
	}
	// A scheduler entry must not emit deque series.
	if strings.Contains(body, `deque="test_exporter_sched"`) {
		t.Errorf("scheduler entry leaked deque series:\n%s", body)
	}

	unregister()
	if strings.Contains(scrape(t), "test_exporter_sched") {
		t.Fatal("entry still exported after unregister")
	}
}
