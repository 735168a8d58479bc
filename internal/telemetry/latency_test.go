package telemetry

import (
	"strconv"
	"strings"
	"testing"

	"dcasdeque/internal/metrics"
)

func TestSinkLatencyDisabled(t *testing.T) {
	s := NewSink()
	if s.LatencyEnabled() {
		t.Fatal("fresh sink reports latency enabled")
	}
	// OpTimed with start == 0 is exactly Op: counters move, no histogram
	// exists to record into.
	s.OpTimed(Left, Pushes, 3, 0)
	sn := s.Snapshot()
	if l := sn.Ends[Left]; l[Pushes] != 1 || l[Retries] != 3 {
		t.Fatalf("counters: %+v", l)
	}
	if sn.Latency != nil {
		t.Fatal("Snapshot.Latency non-nil without EnableLatency")
	}
	// A stale non-zero stamp on a disabled sink must also be a no-op for
	// latency (the lat nil-check guards it).
	s.OpTimed(Left, Pushes, 0, metrics.Stamp())
	if s.Snapshot().Latency != nil {
		t.Fatal("latency recorded on disabled sink")
	}
}

func TestSinkOpTimed(t *testing.T) {
	s := NewSink().EnableLatency()
	s.EnableLatency() // idempotent
	if !s.LatencyEnabled() {
		t.Fatal("EnableLatency did not enable")
	}
	// Uncontended op: op histogram only.
	s.OpTimed(Left, Pushes, 0, metrics.Stamp()-100)
	// Contended op: op and spin histograms.
	s.OpTimed(Left, Pops, 2, metrics.Stamp()-1000)
	// start == 0: counters only, even with latency enabled (the core had
	// stamping off — mixed configurations must not record garbage).
	s.OpTimed(Left, Pushes, 0, 0)
	// A contended boundary hit on the other end: its own histograms.
	s.OpTimed(Right, EmptyHits, 1, metrics.Stamp()-500)

	sn := s.Snapshot()
	if c := sn.Ends[Left]; c[Pushes] != 2 || c[Pops] != 1 || c[Retries] != 2 {
		t.Fatalf("counters: %+v", c)
	}
	if c := sn.Ends[Right]; c[EmptyHits] != 1 || c[Retries] != 1 || c[Pops] != 0 {
		t.Fatalf("right counters: %+v", c)
	}
	l := sn.Latency
	if l == nil {
		t.Fatal("Snapshot.Latency nil with latency enabled")
	}
	if l.Op[Left].N != 2 {
		t.Fatalf("left op n = %d, want 2", l.Op[Left].N)
	}
	if l.Spin[Left].N != 1 {
		t.Fatalf("left spin n = %d, want 1 (only the retried op)", l.Spin[Left].N)
	}
	if l.Op[Right].N != 1 || l.Spin[Right].N != 1 {
		t.Fatalf("right op/spin n = %d/%d, want 1/1", l.Op[Right].N, l.Spin[Right].N)
	}
	if l.Op[Left].Min == 0 || l.Op[Left].Max < l.Op[Left].Min {
		t.Fatalf("left op extremes: %+v", l.Op[Left])
	}
}

func TestSchedSinkLatency(t *testing.T) {
	s := NewSchedSink(4)
	if s.LatencyEnabled() {
		t.Fatal("fresh sched sink reports latency enabled")
	}
	// Disabled: Latency is a no-op, not a panic.
	s.Latency(0, SchedSubmitRun, 100)
	if s.Snapshot().Latencies != nil {
		t.Fatal("Latencies non-nil without EnableLatency")
	}

	s.EnableLatency()
	s.EnableLatency() // idempotent
	s.Latency(0, SchedSubmitRun, 100)
	s.Latency(3, SchedSubmitRun, 200)
	s.Latency(1, SchedStealRun, 50)
	s.Latency(SchedExternal, SchedParkWake, 75) // external lane must not panic
	sn := s.Snapshot()
	l := sn.Latencies
	if l == nil {
		t.Fatal("Latencies nil with latency enabled")
	}
	if sr := l[SchedSubmitRun]; sr.N != 2 || sr.Min != 100 || sr.Max != 200 {
		t.Fatalf("submit_run: %+v", sr)
	}
	if l[SchedStealRun].N != 1 || l[SchedParkWake].N != 1 {
		t.Fatalf("steal_run/park_wake n = %d/%d", l[SchedStealRun].N, l[SchedParkWake].N)
	}
	if len(l) != int(NumSchedLatencies) {
		t.Fatalf("%d latency snapshots, want %d", len(l), NumSchedLatencies)
	}
}

func TestSchedLatencyStrings(t *testing.T) {
	want := map[SchedLatency]string{
		SchedSubmitRun: "submit_run",
		SchedStealRun:  "steal_run",
		SchedParkWake:  "park_wake",
	}
	if len(SchedLatencyNames) != int(NumSchedLatencies) {
		t.Fatalf("SchedLatencyNames = %q, want %d names", SchedLatencyNames, NumSchedLatencies)
	}
	for k, w := range want {
		if SchedLatencyNames[k] != w {
			t.Errorf("SchedLatencyNames[%d] = %q, want %q", k, SchedLatencyNames[k], w)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	sink := NewSink().EnableLatency()
	sink.OpTimed(Right, Pushes, 0, metrics.Stamp()-1000)
	sink.OpTimed(Right, Pops, 2, metrics.Stamp()-5000)
	unDeque := Register("test_prom_deque", sink, nil)
	defer unDeque()

	ss := NewSchedSink(2).EnableLatency()
	ss.Inc(0, SchedRuns)
	ss.Latency(0, SchedSubmitRun, 1500)
	ss.Latency(1, SchedParkWake, 4096)
	unSched := RegisterSched("test_prom_sched", ss)
	defer unSched()

	// Without latency enabled, no latency series appear for the entry.
	plain := NewSink()
	plain.Op(Left, Pushes, 0)
	unPlain := Register("test_prom_nolat", plain, nil)
	defer unPlain()

	var b strings.Builder
	WritePrometheus(&b)
	body := b.String()
	for _, want := range []string{
		"# TYPE dcasdeque_ops_total counter",
		`dcasdeque_ops_total{deque="test_prom_deque",end="right",counter="pushes"} 1`,
		`dcasdeque_ops_total{deque="test_prom_deque",end="right",counter="retries"} 2`,
		"# TYPE dcasdeque_op_latency_seconds histogram",
		`dcasdeque_op_latency_seconds_count{deque="test_prom_deque",end="right"} 2`,
		`dcasdeque_op_latency_seconds_count{deque="test_prom_deque",end="left"} 0`,
		`dcasdeque_op_spin_latency_seconds_count{deque="test_prom_deque",end="right"} 1`,
		`dcasdeque_op_latency_quantile_seconds{deque="test_prom_deque",end="right",quantile="0.99"}`,
		`dcasdeque_op_spin_latency_quantile_seconds{deque="test_prom_deque",end="right",quantile="0.99"}`,
		`dcasdeque_ops_total{deque="test_prom_nolat",end="left",counter="pushes"} 1`,
		`dcasdeque_sched_events_total{sched="test_prom_sched",worker="0",event="runs"} 1`,
		`dcasdeque_sched_latency_seconds_count{sched="test_prom_sched",kind="submit_run"} 1`,
		`dcasdeque_sched_latency_seconds_bucket{sched="test_prom_sched",kind="submit_run",le="+Inf"} 1`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_prom_sched",kind="submit_run",quantile="0.5"}`,
		`dcasdeque_sched_latency_seconds_count{sched="test_prom_sched",kind="park_wake"} 1`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_prom_sched",kind="park_wake",quantile="0"} 4.096e-06`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_prom_sched",kind="park_wake",quantile="1"} 4.096e-06`,
		`dcasdeque_sched_latency_seconds_count{sched="test_prom_sched",kind="steal_run"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, `latency_seconds_count{deque="test_prom_nolat"`) {
		t.Error("latency series for a latency-disabled deque")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestWriteTextLatency checks the latency series of the text exposition:
// per-end op and spin counts, the per-end p99, the scheduler's latency
// extremes (quantile 1 is the histogram maximum), and no latency series
// for a deque registered without latency.
func TestWriteTextLatency(t *testing.T) {
	sink := NewSink().EnableLatency()
	sink.OpTimed(Left, Pushes, 1, metrics.Stamp()-1000)
	unDeque := Register("test_lat_deque", sink, nil)
	defer unDeque()

	ss := NewSchedSink(1).EnableLatency()
	ss.Latency(0, SchedParkWake, 4096)
	unSched := RegisterSched("test_lat_sched", ss)
	defer unSched()

	var b strings.Builder
	WritePrometheus(&b)
	body := b.String()
	for _, want := range []string{
		`dcasdeque_op_latency_seconds_count{deque="test_lat_deque",end="left"} 1`,
		`dcasdeque_op_latency_quantile_seconds{deque="test_lat_deque",end="left",quantile="0.99"} `,
		`dcasdeque_op_spin_latency_seconds_count{deque="test_lat_deque",end="left"} 1`,
		`dcasdeque_op_latency_seconds_count{deque="test_lat_deque",end="right"} 0`,
		`dcasdeque_sched_latency_seconds_count{sched="test_lat_sched",kind="park_wake"} 1`,
		`dcasdeque_sched_latency_quantile_seconds{sched="test_lat_sched",kind="park_wake",quantile="1"} 4.096e-06`,
		`dcasdeque_sched_latency_seconds_count{sched="test_lat_sched",kind="submit_run"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	// Without latency enabled, no latency series appear for the entry.
	plain := NewSink()
	plain.Op(Left, Pushes, 0)
	unPlain := Register("test_nolat_deque", plain, nil)
	defer unPlain()
	b.Reset()
	WritePrometheus(&b)
	sawPlain := false
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, `deque="test_nolat_deque"`) {
			continue
		}
		sawPlain = true
		if strings.Contains(line, "latency") {
			t.Fatalf("latency line for latency-disabled deque: %s", line)
		}
	}
	if !sawPlain {
		t.Fatal("latency-disabled deque missing from the exposition")
	}
}

// TestPromHistogramCumulative checks the histogram rendering invariants
// directly: `le` bounds strictly increasing, bucket counts cumulative
// and monotone, and the +Inf bucket equal to _count.
func TestPromHistogramCumulative(t *testing.T) {
	h := metrics.NewShardedHistogram(1)
	for i := uint64(1); i <= 10000; i += 7 {
		h.RecordAt(0, i)
	}
	sn := h.Snapshot()
	f := &promFamily{name: "x"}
	promHistogram(f, `l="v"`, sn)
	// Every sample line is "name{labels} value"; the value is the last
	// space-separated field.
	lastField := func(s string) uint64 {
		i := strings.LastIndex(s, " ")
		v, err := strconv.ParseUint(s[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse value in %q: %v", s, err)
		}
		return v
	}
	var prevLe float64 = -1
	var prevCum uint64
	var infCount, count uint64
	for _, s := range f.samples {
		switch {
		case strings.Contains(s, `le="+Inf"`):
			infCount = lastField(s)
		case strings.HasPrefix(s, "x_bucket{"):
			i := strings.Index(s, `le="`) + len(`le="`)
			j := strings.Index(s[i:], `"`)
			le, err := strconv.ParseFloat(s[i:i+j], 64)
			if err != nil {
				t.Fatalf("parse le in %q: %v", s, err)
			}
			cum := lastField(s)
			if le <= prevLe {
				t.Fatalf("le not increasing: %v after %v", le, prevLe)
			}
			if cum < prevCum {
				t.Fatalf("cumulative count decreased: %d after %d", cum, prevCum)
			}
			prevLe, prevCum = le, cum
		case strings.HasPrefix(s, "x_count{"):
			count = lastField(s)
		}
	}
	if infCount != sn.N || count != sn.N {
		t.Fatalf("+Inf=%d count=%d, want %d", infCount, count, sn.N)
	}
	if prevCum != sn.N {
		t.Fatalf("last finite bucket %d, want all %d observations bucketed", prevCum, sn.N)
	}
}
