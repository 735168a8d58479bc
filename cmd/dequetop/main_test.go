package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"dcasdeque/deque"
	"dcasdeque/internal/telemetry"
)

func TestParse(t *testing.T) {
	c := parse(`# HELP a_total Things.
# TYPE a_total counter
a_total{deque="a",end="left"} 10
a_total{deque="a",end="right"} 3

junk line with no value
b_seconds_sum{sched="b"} 7.5e-06
c 7 1700000000000
bad{deque="x"} x
unterminated{deque="x} 1
badescape{deque="\t"} 1
`)
	if len(c) != 3 {
		t.Fatalf("parsed %d families, want 3: %v", len(c), c)
	}
	if v, _ := c.sum("a_total", "deque", "a"); v != 13 {
		t.Fatalf("sum by deque = %v, want 13", v)
	}
	if v, _ := c.sum("a_total", "deque", "a", "end", "left"); v != 10 {
		t.Fatalf("left = %v, want 10", v)
	}
	if v, _ := c.sum("b_seconds_sum"); v != 7.5e-06 {
		t.Fatalf("float value = %v", v)
	}
	if v, _ := c.sum("c"); v != 7 {
		t.Fatalf("unlabelled sample with timestamp = %v, want 7", v)
	}
	if _, ok := c.sum("a_total", "deque", "nope"); ok {
		t.Fatal("sum matched a label value that is not there")
	}
}

// TestParseUnescapes: label values come back exactly as the exporter
// was given them, through its escaping of \\, \" and \n.
func TestParseUnescapes(t *testing.T) {
	const name = "q\"uo\\te\nnew\tline"
	sink := telemetry.NewSink()
	sink.Op(telemetry.Left, telemetry.Pushes, 0)
	defer telemetry.Register(name, sink, nil)()
	var b strings.Builder
	telemetry.WritePrometheus(&b)
	c := parse(b.String())
	if got := c.count("dcasdeque_ops_total", "deque", name, "end", "left", "counter", "pushes"); got != 1 {
		t.Fatalf("escaped name did not round-trip (pushes = %d):\n%s", got, b.String())
	}
	if got := c.labelValues("dcasdeque_ops_total", "deque"); !slices.Contains(got, name) {
		t.Fatalf("deque names %q lack %q", got, name)
	}
}

func TestRate(t *testing.T) {
	if got := rate(150, 100, time.Second); got != "50" {
		t.Fatalf("rate = %q, want 50", got)
	}
	if got := rate(100, 0, 0); got != "-" {
		t.Fatalf("rate with no previous frame = %q, want -", got)
	}
	if got := rate(10, 100, time.Second); got != "-" {
		t.Fatalf("rate across counter reset = %q, want -", got)
	}
}

// TestRenderLive drives the full pipeline against a real registry: a
// latency-enabled deque and scheduler sink registered with the exporter,
// served over httptest, fetched and rendered like a -once frame.
func TestRenderLive(t *testing.T) {
	sink := telemetry.NewSink().EnableLatency()
	sink.OpTimed(telemetry.Right, telemetry.Pushes, 0, 1) // huge elapsed: lands in a high bucket
	sink.OpTimed(telemetry.Left, telemetry.Pops, 3, 1)
	unDeque := telemetry.Register("topdeque", sink, nil)
	defer unDeque()

	ss := telemetry.NewSchedSink(2).EnableLatency()
	ss.Inc(0, telemetry.SchedRuns)
	ss.Latency(0, telemetry.SchedSubmitRun, 12345)
	unSched := telemetry.RegisterSched("topsched", ss)
	defer unSched()

	srv := httptest.NewServer(deque.PrometheusHandler())
	defer srv.Close()

	cur, err := fetch(&http.Client{}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if cur.count("dcasdeque_ops_total", "deque", "topdeque", "end", "right", "counter", "pushes") != 1 ||
		cur.count("dcasdeque_sched_events_total", "sched", "topsched", "event", "runs") != 1 {
		t.Fatalf("fetch missed counters: %v", cur)
	}

	var b strings.Builder
	render(&b, cur, scrape{}, time.Second)
	out := b.String()
	for _, want := range []string{
		"DEQUE", "SCHED",
		"topdeque", "topsched",
		"submit_run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The latency columns must show real durations, not the "-" absent
	// marker, on the rows that recorded samples.
	var rightRow, schedLatRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "topdeque") && strings.Contains(line, "right") {
			rightRow = line
		}
		if strings.Contains(line, "submit_run") {
			schedLatRow = line
		}
	}
	if rightRow == "" || schedLatRow == "" {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(rightRow, "s") || strings.Count(rightRow, " -") > 1 {
		// The op histogram recorded; only the spin column may be absent.
		t.Errorf("right row lost its latency quantiles: %q", rightRow)
	}
	if strings.Contains(schedLatRow, " - ") && !strings.Contains(schedLatRow, "µs") && !strings.Contains(schedLatRow, "ms") {
		t.Errorf("sched latency row empty: %q", schedLatRow)
	}

	// The left end retried: its spin column carries a duration.
	var leftRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "topdeque") && strings.Contains(line, "left") {
			leftRow = line
		}
	}
	fields := strings.Fields(leftRow)
	if len(fields) != 9 {
		t.Fatalf("left row has %d fields: %q", len(fields), leftRow)
	}
	if fields[len(fields)-1] == "-" {
		t.Errorf("left spin-p99 absent despite retries: %q", leftRow)
	}
}

// TestRenderEmpty: an endpoint with no registrations renders the empty
// notice rather than a bare header.
func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	render(&b, scrape{}, scrape{}, time.Second)
	if !strings.Contains(b.String(), "no registered deques or schedulers") {
		t.Fatalf("empty frame:\n%s", b.String())
	}
}
