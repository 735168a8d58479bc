package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestInputsFollowSeed(t *testing.T) {
	a := endStream(1, 0, 4096, 64, 16)
	if !slices.Equal(a, endStream(1, 0, 4096, 64, 16)) {
		t.Error("endStream: same seed gave different streams")
	}
	if slices.Equal(a, endStream(2, 0, 4096, 64, 16)) {
		t.Error("endStream: different seeds gave the same stream")
	}
	if slices.Equal(a, endStream(1, 1, 4096, 64, 16)) {
		t.Error("endStream: both ends got the same stream")
	}
	r1, r2 := echoRequests(1, 0, 64, 16, 1024), echoRequests(1, 0, 64, 16, 1024)
	if !slices.EqualFunc(r1, r2, func(a, b echoReq) bool { return a.tenant == b.tenant && string(a.body) == string(b.body) }) {
		t.Error("echoRequests: same seed gave different requests")
	}
	if slices.EqualFunc(r1, echoRequests(2, 0, 64, 16, 1024), func(a, b echoReq) bool { return string(a.body) == string(b.body) }) {
		t.Error("echoRequests: different seeds gave the same requests")
	}
}

func TestEndStreamStaysWithinBound(t *testing.T) {
	const bound, k = 32, 8
	for seed := range uint64(20) {
		ops := endStream(seed, 0, 10000, bound, k)
		depth, sampled := 0, 0
		for _, op := range ops {
			if op&opPush != 0 {
				depth++
			} else {
				depth--
			}
			if depth > bound || depth < -bound {
				t.Fatalf("seed %d: depth %d leaves [-%d, %d]", seed, depth, bound, bound)
			}
			if op&opSample != 0 {
				sampled++
			}
		}
		if depth != 0 {
			t.Fatalf("seed %d: stream ends at depth %d, want 0", seed, depth)
		}
		if got := float64(sampled) / float64(len(ops)); got < 0.5/k || got > 2.0/k {
			t.Errorf("seed %d: sampled share %.3f, want about 1/%d", seed, got, k)
		}
	}
}

func TestEchoRequestsShape(t *testing.T) {
	b := 0
	for _, r := range echoRequests(7, 0, 2000, 16, 1024) {
		if n := len(r.payload); n < 16 || n > 1024 {
			t.Fatalf("payload of %d bytes outside [16, 1024]", n)
		}
		if want := `{"kind":"echo","data":"` + r.payload + `"}`; string(r.body) != want {
			t.Fatalf("body %q, want %q", r.body, want)
		}
		if r.tenant == "b" {
			b++
		}
	}
	if b < 350 || b > 650 {
		t.Errorf("%d of 2000 requests on tenant b, want about 500", b)
	}
}

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	samples := make([]uint32, 1000)
	for i := range samples {
		samples[i] = uint32(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}, {0.0001, 1}} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]uint32{30, 10, 20}, 0.5); got != 20 {
		t.Errorf("quantile({30,10,20}, 0.5) = %v, want 20", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median({4,1,3,2}) = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, Name: "a", Parent: "root", Start: 10, End: 40},
		{Trace: 1, Name: "b", Parent: "root", Start: 30, End: 60}, // overlaps a
		{Trace: 1, Name: "c", Parent: "a", Start: 20, End: 25},
		{Trace: 2, Name: "root", Start: 0, End: 10}, // no children
	}
	want := map[string]spanStat{
		"root": {"root", 2, 10, 10}, // self 50 and 10: median of two is the lower
		"a":    {"a", 1, 30, 25},
		"b":    {"b", 1, 30, 30},
		"c":    {"c", 1, 5, 5},
	}
	for _, st := range selfTimes(spans) {
		if st != want[st.Name] {
			t.Errorf("%s: got %+v, want %+v", st.Name, st, want[st.Name])
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json perfbench's output must
// match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics checks that the result carries exactly the listed
// metrics, each with a well-formed name and the listed unit.
func checkMetrics(t *testing.T, what string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case !metricName.MatchString(m.Name):
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, m.Name)
		case got.Unit == "" || got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and in the traced
// sweep, and checks its correctness checks pass and its metrics match
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	cfg := runConfig{seed: 3, window: 400 * time.Millisecond, trials: 2}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d: perfbench has %s, BENCHMARK.json %s", i, workloads[i].name, w.Name)
		}
		res, err := untraced(io.Discard, i, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, w.Name, res, spec.EndToEnd)
		for _, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metrics must be positive: %+v", w.Name, res.Metrics)
				break
			}
		}
	}
	cfg.trials, cfg.window = 1, 100*time.Millisecond
	res, err := tracedSweep(io.Discard, t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "traced sweep", res, spec.PerLayer)
	for _, zero := range []string{"deque.boundary_share", "serve.reject_share"} {
		if v := res.Metrics[zero].Value; v != 0 {
			t.Errorf("%s = %v, the workload makes it 0", zero, v)
		}
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "deque-ends", "--seconds", "0"},
		{"--workload", "deque-ends", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
