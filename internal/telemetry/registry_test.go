package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"

	"dcasdeque/internal/dcas"
)

// scrape fetches the exposition through PrometheusHandler, as a scrape
// target would.
func scrape(t *testing.T) string {
	t.Helper()
	rec := httptest.NewRecorder()
	PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.String()
}

func TestExporter(t *testing.T) {
	sink := NewSink()
	sink.Op(Right, Pushes, 2)
	sink.Op(Left, Pops, 0)
	p := sink.Instrument(dcas.Default())
	var a, b dcas.Loc
	for i := 0; i < 5; i++ {
		old := uint64(i / 3) // the last two expect 1 where the words hold 0: they fail
		p.DCAS(&a, &b, old, old, 0, 0)
	}
	unregister := Register("test_exporter_deque", sink, nil)
	defer unregister()

	body := scrape(t)
	for _, want := range []string{
		`dcasdeque_ops_total{deque="test_exporter_deque",end="right",counter="pushes"} 1`,
		`dcasdeque_ops_total{deque="test_exporter_deque",end="right",counter="retries"} 2`,
		`dcasdeque_ops_total{deque="test_exporter_deque",end="left",counter="pops"} 1`,
		`dcasdeque_dcas_total{deque="test_exporter_deque",event="attempts"} 5`,
		`dcasdeque_dcas_total{deque="test_exporter_deque",event="failures"} 2`,
		`dcasdeque_dcas_total{deque="test_exporter_deque",event="successes"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// Unregister removes the entry.
	unregister()
	if strings.Contains(scrape(t), "test_exporter_deque") {
		t.Fatal("entry still exported after unregister")
	}
	unregister() // idempotent
}

func TestRegisterReplaces(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	b.Op(Left, Pushes, 0)
	unA := Register("test_replace_deque", a, nil)
	unB := Register("test_replace_deque", b, nil)
	defer unB()

	const want = `dcasdeque_ops_total{deque="test_replace_deque",end="left",counter="pushes"} 2`
	if body := scrape(t); !strings.Contains(body, want) {
		t.Fatalf("replacement not visible:\n%s", body)
	}

	// The stale unregister func must not remove the replacement.
	unA()
	if !strings.Contains(scrape(t), want) {
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
	const want = `dcasdeque_sched_events_total{sched="test_replace_sched",worker="0",event="runs"} 2`
	if body := scrape(t); !strings.Contains(body, want) {
		t.Fatalf("stale sched unregister removed the replacement:\n%s", body)
	}
	unB()
	if strings.Contains(scrape(t), "test_replace_sched") {
		t.Fatal("entry still exported after unregister")
	}
}
