// Command dequesoak runs the long-haul soak harness (internal/soak)
// against the deque backends: sustained churn workloads with quiescent
// occupancy sampling, a conservation check at every sample, a windowed
// growth regression past warmup, and a full-drain leak audit.
//
// Usage:
//
//	dequesoak [-d 90s] [-backend all] [-workload all] [-workers N]
//	          [-sample 0] [-membound 0] [-seed 1]
//	          [-timeline-dir DIR] [-v]
//	dequesoak -certify-leak [-d 10s] [-leak 64]
//
// The total duration -d is split evenly across the selected
// backend × workload cells, which run sequentially.  On any violation
// the flight-recorder dump and the occupancy timeline are written to
// -timeline-dir (default ".") and the process exits 1.
//
// -certify-leak is the known-positive mode: it arms the seeded LFRC
// leak (every -leak'th release dropped — a deliberately skipped
// decrement) on the lfrc backend and exits 0 only if the harness
// DETECTS the leak, with a non-empty flight dump.  A harness that
// cannot catch a leak it planted itself certifies nothing; CI runs this
// mode alongside the clean sweep.
//
// Both modes first print one "env: num_cpu=… gomaxprocs=… go=…" line,
// as dequestress does, so a recorded certificate carries the
// parallelism it was earned at.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dcasdeque/internal/soak"
)

var (
	durFlag      = flag.Duration("d", 90*time.Second, "total churn time, split across cells")
	backendFlag  = flag.String("backend", "all", "backend: "+strings.Join(soak.Backends(), ", ")+", or all")
	workloadFlag = flag.String("workload", "all", "workload: "+strings.Join(soak.Workloads(), ", ")+", or all")
	workersFlag  = flag.Int("workers", 0, "workers per cell (0 = GOMAXPROCS)")
	sampleFlag   = flag.Duration("sample", 0, "sampling period (0 = cell duration / 48)")
	memboundFlag = flag.Int64("membound", 0, "per-deque WithMemoryBound budget in bytes (0 = unbounded)")
	seedFlag     = flag.Uint64("seed", 1, "base RNG seed")
	timelineDir  = flag.String("timeline-dir", ".", "where to write timeline/flight artifacts on failure")
	verboseFlag  = flag.Bool("v", false, "per-cell progress output")
	certifyFlag  = flag.Bool("certify-leak", false, "known-positive mode: exit 0 iff the seeded LFRC leak is detected")
	leakFlag     = flag.Uint64("leak", 64, "with -certify-leak: drop every nth LFRC release")
)

func main() {
	flag.Parse()
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if *certifyFlag {
		os.Exit(certifyLeak())
	}
	os.Exit(sweep())
}

func pick(all []string, sel string) ([]string, error) {
	if sel == "all" || sel == "" {
		return all, nil
	}
	var out []string
	for _, s := range strings.Split(sel, ",") {
		s = strings.TrimSpace(s)
		found := false
		for _, a := range all {
			if a == s {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown %q (have %s, all)", s, strings.Join(all, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// sweep runs the clean certification matrix; returns the exit code.
func sweep() int {
	backends, err := pick(soak.Backends(), *backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequesoak:", err)
		return 2
	}
	workloads, err := pick(soak.Workloads(), *workloadFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequesoak:", err)
		return 2
	}
	cells := len(backends) * len(workloads)
	per := *durFlag / time.Duration(cells)
	fmt.Printf("dequesoak: %d cells (%d backends × %d workloads), %v each, %v total\n",
		cells, len(backends), len(workloads), per.Round(time.Millisecond), *durFlag)

	failures := 0
	start := time.Now()
	for _, b := range backends {
		for _, w := range workloads {
			cfg := soak.Config{
				Backend:     b,
				Workload:    w,
				Workers:     *workersFlag,
				Duration:    per,
				SampleEvery: *sampleFlag,
				MemBound:    *memboundFlag,
				Seed:        *seedFlag,
			}
			if *verboseFlag {
				cfg.Log = os.Stdout
			}
			rep, err := soak.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dequesoak: %s/%s: %v\n", b, w, err)
				return 2
			}
			if rep.Failed() {
				failures++
				fmt.Printf("FAIL  %-8s %-9s %9d ops  %d violation(s)\n", b, w, rep.Ops, len(rep.Violations))
				for _, v := range rep.Violations {
					fmt.Printf("      %s\n", v)
				}
				dumpArtifacts(rep)
			} else {
				extra := ""
				if rep.BoundHits > 0 {
					extra = fmt.Sprintf("  bound-hits %d", rep.BoundHits)
				}
				fmt.Printf("ok    %-8s %-9s %9d ops  %d samples  slots-hw %d%s\n",
					b, w, rep.Ops, len(rep.Samples), rep.Final.Slots.HighWater, extra)
			}
		}
	}
	fmt.Printf("dequesoak: %d/%d cells clean in %v\n", cells-failures, cells, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return 1
	}
	return 0
}

// certifyLeak runs the seeded-leak known-positive; returns the exit code.
func certifyLeak() int {
	cfg := soak.Config{
		Backend:   "lfrc",
		Workload:  "recycle",
		Workers:   *workersFlag,
		Duration:  *durFlag,
		LeakEvery: *leakFlag,
		Seed:      *seedFlag,
	}
	if *verboseFlag {
		cfg.Log = os.Stdout
	}
	fmt.Printf("dequesoak: certify-leak: lfrc/recycle for %v, dropping every %dth release\n", *durFlag, *leakFlag)
	rep, err := soak.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequesoak:", err)
		return 2
	}
	if !rep.Failed() {
		fmt.Printf("FAIL  seeded leak NOT detected (%d releases dropped over %d ops) — the harness is blind\n",
			rep.LeakSkips, rep.Ops)
		return 1
	}
	if rep.LeakSkips == 0 {
		fmt.Println("FAIL  leak armed but never fired — workload too light to certify")
		return 1
	}
	if rep.FlightDump == "" {
		fmt.Println("FAIL  leak detected but no flight-recorder dump was produced")
		return 1
	}
	fmt.Printf("ok    seeded leak detected after %d dropped releases (%d ops): %s\n",
		rep.LeakSkips, rep.Ops, rep.Violations[0])
	// The detected leak's evidence is the artifact worth keeping: the
	// timeline shows the ratchet, the flight dump the operations behind it.
	dumpArtifacts(rep)
	return 0
}

// dumpArtifacts writes the failing cell's occupancy timeline and flight
// dump for post-mortem (CI uploads these on failure).
func dumpArtifacts(rep *soak.Report) {
	base := fmt.Sprintf("soak-%s-%s", rep.Backend, rep.Workload)
	tl := filepath.Join(*timelineDir, base+".timeline.csv")
	if f, err := os.Create(tl); err == nil {
		if err := rep.WriteTimeline(f); err != nil {
			fmt.Fprintf(os.Stderr, "dequesoak: writing %s: %v\n", tl, err)
		}
		f.Close()
		fmt.Printf("      timeline: %s\n", tl)
	} else {
		fmt.Fprintf(os.Stderr, "dequesoak: %v\n", err)
	}
	if rep.FlightDump != "" {
		fd := filepath.Join(*timelineDir, base+".flight")
		if err := os.WriteFile(fd, []byte(rep.FlightDump), 0o644); err == nil {
			fmt.Printf("      flight dump: %s\n", fd)
		} else {
			fmt.Fprintf(os.Stderr, "dequesoak: %v\n", err)
		}
	}
}
