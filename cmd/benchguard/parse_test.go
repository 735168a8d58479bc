package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: dcasdeque
cpu: Some CPU @ 2.40GHz
BenchmarkPublicAPI/Array[int]-8         	 3507968	       342.4 ns/op
BenchmarkPublicAPI/Array[int]-8         	 3600000	       338.0 ns/op
BenchmarkPublicAPI/List[int]-8          	 2000000	       651.2 ns/op	16 B/op	       1 allocs/op
BenchmarkPublicAPI/Mutex[int]-8         	 5000000	       241.0 ns/op
BenchmarkWorkStealing/depth=16-8        	      50	  22000000 ns/op
PASS
ok  	dcasdeque	4.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got["BenchmarkPublicAPI/Array[int]"]) != 2 {
		t.Fatalf("Array samples = %v, want 2 entries", got["BenchmarkPublicAPI/Array[int]"])
	}
	if got["BenchmarkPublicAPI/Array[int]"][0] != 342.4 {
		t.Fatalf("first Array sample = %v", got["BenchmarkPublicAPI/Array[int]"][0])
	}
	// The -8 GOMAXPROCS suffix must be stripped, including for names
	// with extra metrics columns after ns/op.
	if v := got["BenchmarkPublicAPI/List[int]"]; len(v) != 1 || v[0] != 651.2 {
		t.Fatalf("List samples = %v", v)
	}
	if _, ok := got["BenchmarkPublicAPI/List[int]-8"]; ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
}

func TestParseBenchBadNumber(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkX-8 100 abc ns/op\n"))
	if err == nil {
		t.Fatal("no error for malformed ns/op")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}

func TestHeadgate(t *testing.T) {
	head := map[string][]float64{
		"New":  {110, 112, 108}, // median 110
		"Ref":  {100, 102, 98},  // median 100
		"Fast": {80},
	}
	g, err := parseGate("New=Ref@250")
	if err != nil {
		t.Fatal(err)
	}
	if g.budget != 250 {
		t.Fatalf("budget = %v, want 250", g.budget)
	}
	line, pct, err := g.judge(head)
	if err != nil {
		t.Fatal(err)
	}
	if pct < 9.9 || pct > 10.1 {
		t.Fatalf("pct = %v, want ~10", pct)
	}
	for _, want := range []string{"New", "Ref", "head gate", "budget 250.0%"} {
		if !strings.Contains(line, want) {
			t.Fatalf("verdict line missing %q: %s", want, line)
		}
	}
	// A candidate faster than its reference reports a negative overhead.
	if g, err = parseGate("Fast=Ref@5"); err != nil {
		t.Fatal(err)
	}
	if _, pct, _ = g.judge(head); pct >= 0 {
		t.Fatalf("faster candidate pct = %v, want negative", pct)
	}
	// A spec without @pct names no budget and is rejected.
	if _, err := parseGate("New=Ref"); err == nil || !strings.Contains(err.Error(), "no budget") {
		t.Fatalf("parseGate without @pct: %v, want a no-budget error", err)
	}
	for _, bad := range []string{"", "NoEquals@5", "=Ref@5", "New=@5", "New=Ref@", "New=Ref@x", "New=Ref@-3"} {
		if _, err := parseGate(bad); err == nil {
			t.Fatalf("parseGate(%q) accepted", bad)
		}
	}
}

// A peer that ran zero iterations (filtered out by -bench, build-tagged
// away, or crashed before emitting a result line) must produce a verdict
// that names the missing side, not a bare "not found" or a NaN overhead.
func TestHeadgateNoSamples(t *testing.T) {
	head := map[string][]float64{
		"New":   {110},
		"Empty": {}, // present but sample-less
	}
	for _, spec := range []string{"Gone=New", "New=Gone", "Empty=New", "New=Empty"} {
		_, _, err := mustGate(t, spec+"@5").judge(head)
		if err == nil {
			t.Fatalf("headgate(%q) accepted with a sample-less side", spec)
		}
		if !strings.Contains(err.Error(), "no ns/op samples") {
			t.Fatalf("headgate(%q) error not diagnostic: %v", spec, err)
		}
	}
	// A zero reference median must not divide through to ±Inf.
	zero := map[string][]float64{"New": {110}, "Zed": {0}}
	if _, _, err := mustGate(t, "New=Zed@5").judge(zero); err == nil || !strings.Contains(err.Error(), "0 ns/op median") {
		t.Fatalf("zero-median reference not rejected: %v", err)
	}
}

func mustGate(t *testing.T, spec string) gate {
	t.Helper()
	g, err := parseGate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
