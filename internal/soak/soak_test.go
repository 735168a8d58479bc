package soak

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dcasdeque/internal/telemetry"
)

// short returns a cell config small enough for the unit-test suite; the
// real certification runs live in cmd/dequesoak (make soak-smoke).
func short(backend, workload string) Config {
	return Config{
		Backend:     backend,
		Workload:    workload,
		Workers:     4,
		Duration:    400 * time.Millisecond,
		SampleEvery: 20 * time.Millisecond,
	}
}

func TestCleanCells(t *testing.T) {
	for _, b := range Backends() {
		for _, w := range []string{"storm", "recycle"} {
			t.Run(b+"/"+w, func(t *testing.T) {
				rep, err := Run(short(b, w))
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rep.Failed() {
					t.Fatalf("violations on a clean run:\n  %s",
						strings.Join(rep.Violations, "\n  "))
				}
				if rep.Ops == 0 {
					t.Fatal("no operations ran")
				}
				if len(rep.Samples) == 0 {
					t.Fatal("no samples taken")
				}
				// Conservation must have held at every sample AND the final
				// drain must have returned the ledgers to baseline — both are
				// already folded into Violations; spot-check the final state
				// for good measure.
				if rep.Final.Slots.Live != rep.Baseline.Slots.Live {
					t.Fatalf("slots live after drain: %d (baseline %d)",
						rep.Final.Slots.Live, rep.Baseline.Slots.Live)
				}
			})
		}
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			rep, err := Run(short("list", w))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Failed() {
				t.Fatalf("violations: %v", rep.Violations)
			}
		})
	}
}

// TestSeededLeakDetected is the harness's known-positive: with every
// 64th LFRC release dropped (a deliberately skipped decrement), the run
// MUST fail, and the report must carry the flight dump for post-mortem.
func TestSeededLeakDetected(t *testing.T) {
	cfg := short("lfrc", "recycle")
	cfg.Duration = 600 * time.Millisecond
	cfg.LeakEvery = 64
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Failed() {
		t.Fatalf("seeded leak (every 64th release dropped, %d drops) was NOT detected; ops=%d",
			rep.LeakSkips, rep.Ops)
	}
	if rep.LeakSkips == 0 {
		t.Fatal("leak armed but no releases were dropped — workload too light to certify")
	}
	if rep.FlightDump == "" {
		t.Fatal("violating run produced no flight-recorder dump")
	}
	if !strings.Contains(rep.FlightDump, "dcasdeque-flight") {
		t.Fatalf("flight dump missing header: %.80s", rep.FlightDump)
	}
	t.Logf("detected: %s", rep.Violations[0])
}

func TestMemoryBoundBackpressure(t *testing.T) {
	cfg := short("list", "storm")
	cfg.MemBound = 16 << 10 // tight: ~a few hundred elements
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("bounded run violated: %v", rep.Violations)
	}
	if rep.BoundHits == 0 {
		t.Fatal("16KiB bound never rejected a push — bound not enforced")
	}
	// The bound must actually have capped occupancy: high water must be
	// far below what the unbounded storm reaches (≈ targetSize slots).
	if hw := rep.Final.Slots.HighWater; hw > targetSize/2 {
		t.Fatalf("slots high water %d under a 16KiB bound", hw)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Backend: "nope"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Config{Backend: "array", LeakEvery: 8}); err == nil {
		t.Fatal("seeded leak accepted on a non-lfrc backend")
	}
}

func TestTimelineCSV(t *testing.T) {
	rep, err := Run(short("dummy", "storm"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	if err := rep.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(rep.Samples)+1 {
		t.Fatalf("timeline has %d lines for %d samples", len(lines), len(rep.Samples))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, header has %d", i, got, wantCols)
		}
	}
}

// TestWindowStartsFromContents: every backend's flight window opens on
// the deque's real contents, so a dump of any cell can be replayed from
// its initial state.
func TestWindowStartsFromContents(t *testing.T) {
	for _, b := range Backends() {
		t.Run(b, func(t *testing.T) {
			cfg := short(b, "storm")
			if err := cfg.setDefaults(); err != nil {
				t.Fatal(err)
			}
			d, _, err := build(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := []uint64{7, 3, 9, 1}
			for _, v := range want {
				if err := d.PushRight(v); err != nil {
					t.Fatalf("push %d: %v", v, err)
				}
			}
			r := &runner{cfg: &cfg, d: d, rec: telemetry.NewFlightRecorder(cfg.Workers)}
			r.rec.BeginWindow(1<<20, r.itemsQuiesced())
			w := r.rec.EndWindow()
			if fmt.Sprint(w.Initial) != fmt.Sprint(want) {
				t.Fatalf("window initial state %v, want the deque's contents %v", w.Initial, want)
			}
		})
	}
}
