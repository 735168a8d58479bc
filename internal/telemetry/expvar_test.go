package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"strings"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
)

func TestExporter(t *testing.T) {
	sink := NewSink()
	sink.Op(Right, Pushes, 2)
	sink.Op(Left, Pops, 0)
	st := func() dcas.Snapshot { return dcas.Snapshot{Attempts: 5, Failures: 2, Successes: 3} }
	unregister := Register("test_exporter_deque", sink, st, nil)
	defer unregister()

	// The flat text endpoint.
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"test_exporter_deque.right.pushes 1",
		"test_exporter_deque.right.retries 2",
		"test_exporter_deque.left.pops 1",
		"test_exporter_deque.dcas.attempts 5",
		"test_exporter_deque.dcas.successes 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exporter text missing %q:\n%s", want, body)
		}
	}

	// The expvar variable carries the same snapshot as JSON.
	v := expvar.Get("dcasdeque")
	if v == nil {
		t.Fatal("expvar \"dcasdeque\" not published")
	}
	var decoded map[string]exportEntry
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar JSON: %v\n%s", err, v.String())
	}
	e, ok := decoded["test_exporter_deque"]
	if !ok {
		t.Fatalf("expvar JSON missing registered deque: %s", v.String())
	}
	if e.Telemetry.Right.Pushes != 1 || e.Telemetry.Right.Retries != 2 {
		t.Fatalf("expvar telemetry = %+v", e.Telemetry)
	}
	if e.DCAS == nil || e.DCAS.Attempts != 5 || e.DCAS.Successes != 3 {
		t.Fatalf("expvar dcas = %+v", e.DCAS)
	}

	// Unregister removes the entry.
	unregister()
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if strings.Contains(rec.Body.String(), "test_exporter_deque") {
		t.Fatal("entry still exported after unregister")
	}
	unregister() // idempotent
}

func TestRegisterReplaces(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	unA := Register("test_replace_deque", a, nil, nil)
	unB := Register("test_replace_deque", b, nil, nil)
	defer unB()

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "test_replace_deque.left.pushes 2") {
		t.Fatalf("replacement not visible:\n%s", rec.Body.String())
	}

	// The stale unregister func must not remove the replacement.
	unA()
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "test_replace_deque.left.pushes 2") {
		t.Fatal("stale unregister removed the replacement entry")
	}
}

func TestRegisterSchedReplaces(t *testing.T) {
	// The RegisterSched path goes through the same ownership-checked
	// register(); this pins the contract independently — a scheduler
	// rebuilt under the same name must survive the old instance's
	// deferred unregister.
	a, b := NewSchedSink(1), NewSchedSink(1)
	a.Inc(0, SchedRuns)
	b.Inc(0, SchedRuns)
	b.Inc(0, SchedRuns)
	unA := RegisterSched("test_replace_sched", a)
	unB := RegisterSched("test_replace_sched", b)
	defer unB()

	unA() // stale: must not remove b's entry
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "test_replace_sched.sched.runs 2") {
		t.Fatalf("stale sched unregister removed the replacement:\n%s", rec.Body.String())
	}
	unB()
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if strings.Contains(rec.Body.String(), "test_replace_sched") {
		t.Fatal("entry still exported after unregister")
	}
}

func TestWriteTextLatency(t *testing.T) {
	sink := NewSink().EnableLatency()
	sink.OpTimed(Left, Pushes, 1, metrics.Nanotime()-1000)
	unDeque := Register("test_lat_deque", sink, nil, nil)
	defer unDeque()

	ss := NewSchedSink(1).EnableLatency()
	ss.Latency(0, SchedParkWake, 4096)
	unSched := RegisterSched("test_lat_sched", ss)
	defer unSched()

	var b strings.Builder
	WriteText(&b)
	body := b.String()
	for _, want := range []string{
		"test_lat_deque.left.lat.op.n 1",
		"test_lat_deque.left.lat.op.p99 ",
		"test_lat_deque.left.lat.spin.n 1",
		"test_lat_deque.right.lat.op.n 0",
		"test_lat_sched.sched.lat.park_wake.n 1",
		"test_lat_sched.sched.lat.park_wake.max 4096",
		"test_lat_sched.sched.lat.submit_run.n 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("flat text missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("flat text:\n%s", body)
	}

	// Without latency enabled, no .lat. lines appear for the entry.
	plain := NewSink()
	plain.Op(Left, Pushes, 0)
	unPlain := Register("test_nolat_deque", plain, nil, nil)
	defer unPlain()
	b.Reset()
	WriteText(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "test_nolat_deque.") && strings.Contains(line, ".lat.") {
			t.Fatalf("latency line for latency-disabled deque: %s", line)
		}
	}
}
