// Command dequestress runs windowed linearizability checking against the
// real implementations for a configurable duration — the unbounded-
// schedule complement to dequemodel's exhaustive bounded checking.
//
// Usage:
//
//	dequestress [-impl array|list|chaselev|greenwald|mutex|all] [-seconds 10]
//	            [-threads 3] [-ops 4] [-capacity 4] [-seed 1]
//	            [-flight dump.flight] [-watch]
//	dequestress -sched [-sched-runs 10000]   (scheduler mode; see sched.go)
//
// Every run records its operations in a flight recorder.  When a window
// fails the linearizability check, the recorder's retained windows are
// dumped (to the -flight path, or stderr) and the process exits
// non-zero — the dump is the post-mortem, replayable with
// telemetry.Replay or by re-feeding it to this command's certify step.
// On success with -flight set, the dump is written, parsed back, and
// replayed through the checker as an end-to-end certification that the
// recorded evidence itself linearizes.
//
// Every mode first prints one "env: num_cpu=… gomaxprocs=… go=…" line,
// so a recorded certificate carries the parallelism it was earned at.
//
// -watch prints a live per-end telemetry line per implementation while
// it is being stressed (DCAS-core implementations only; the baselines
// carry no telemetry).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"dcasdeque/internal/baseline/greenwald"
	"dcasdeque/internal/baseline/mutexdeque"
	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
	"dcasdeque/internal/verify/stress"
)

var (
	implFlag    = flag.String("impl", "all", "implementation: array, list, list-dummy, list-lfrc, chaselev, greenwald, mutex, all")
	secondsFlag = flag.Int("seconds", 10, "wall-clock budget per implementation")
	threadsFlag = flag.Int("threads", 3, "workers per window")
	opsFlag     = flag.Int("ops", 4, "operations per worker per window")
	capFlag     = flag.Int("capacity", 4, "bounded-deque capacity")
	seedFlag    = flag.Uint64("seed", 1, "base RNG seed")
	flightFlag  = flag.String("flight", "", "write the flight-recorder dump here and replay-certify it")
	watchFlag   = flag.Bool("watch", false, "print a live telemetry dashboard while stressing")
)

type target struct {
	name     string
	d        stress.Deque
	capacity int
	items    func() ([]uint64, error)
	sink     *telemetry.Sink
	// owner restricts generated programs to the Chase–Lev threading
	// contract (thread 0 owns the right end, everyone else steals left).
	owner bool
}

func targets() []target {
	sa, sl, sld, slr, scl := telemetry.NewSink(), telemetry.NewSink(), telemetry.NewSink(), telemetry.NewSink(), telemetry.NewSink()
	a := arraydeque.New(*capFlag, arraydeque.WithTelemetry(sa))
	l := listdeque.New(listdeque.WithTelemetry(sl))
	ld := listdeque.NewDummy(listdeque.WithTelemetry(sld))
	lr := listdeque.NewLFRC(listdeque.WithTelemetry(slr))
	cl := chaselev.New(chaselev.WithTelemetry(scl))
	g := greenwald.New(*capFlag, nil)
	m := mutexdeque.New(*capFlag)
	return []target{
		{"array", a, *capFlag, a.Items, sa, false},
		{"list", l, spec.Unbounded, l.Items, sl, false},
		{"list-dummy", ld, spec.Unbounded, ld.Items, sld, false},
		{"list-lfrc", lr, spec.Unbounded, lr.Items, slr, false},
		{"chaselev", cl, spec.Unbounded, cl.Items, scl, true},
		{"greenwald", g, *capFlag, g.Items, nil, false},
		{"mutex", m, *capFlag, m.Items, nil, false},
	}
}

// watchLine renders one dashboard line from a telemetry snapshot.
func watchLine(name string, windows int64, sn telemetry.Snapshot) string {
	l, r := sn.Ends[telemetry.Left], sn.Ends[telemetry.Right]
	return fmt.Sprintf("watch %-10s %7d windows | L push=%d pop=%d empty=%d retry=%d | R push=%d pop=%d empty=%d retry=%d",
		name, windows,
		l[telemetry.Pushes], l[telemetry.Pops], l[telemetry.EmptyHits], l[telemetry.Retries],
		r[telemetry.Pushes], r[telemetry.Pops], r[telemetry.EmptyHits], r[telemetry.Retries])
}

// flightPath names the dump file for one implementation: the -flight
// path itself when a single implementation is selected, path.<impl> when
// stressing several.
func flightPath(impl string) string {
	if *implFlag != "all" {
		return *flightFlag
	}
	return *flightFlag + "." + impl
}

// dumpRecorder writes the recorder's retained windows to path (or stderr
// when path is empty) and reports where they went.
func dumpRecorder(fr *telemetry.FlightRecorder, path string) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "flight recorder dump follows:")
		if err := fr.Dump(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
		return
	}
	defer f.Close()
	if err := fr.Dump(f); err != nil {
		fmt.Fprintf(os.Stderr, "flight dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight recorder dumped to %s\n", path)
}

// certify writes the dump, parses it back and replays it through the
// linearizability checker — the evidence chain the package doc promises.
func certify(fr *telemetry.FlightRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.Dump(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	ws, err := telemetry.ParseDump(rd)
	if err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	res, err := telemetry.Replay(ws)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s replay certified: %d windows, %d events linearizable (%d checker states) — %s\n",
		"", res.Windows, res.Events, res.StatesExplored, path)
	return nil
}

func main() {
	flag.Parse()
	// A certificate is only as good as the parallelism it ran under:
	// name it before any certificate line, in every mode.
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if *schedFlag {
		os.Exit(schedStress())
	}
	if *serveFlag {
		os.Exit(serveStress())
	}
	failed := false
	for _, t := range targets() {
		if *implFlag != "all" && *implFlag != t.name {
			continue
		}
		fr := telemetry.NewFlightRecorder(*threadsFlag)
		var windows atomic.Int64
		stopWatch := make(chan struct{})
		if *watchFlag && t.sink != nil {
			go func(name string, sink *telemetry.Sink) {
				tick := time.NewTicker(time.Second)
				defer tick.Stop()
				for {
					select {
					case <-stopWatch:
						return
					case <-tick.C:
						fmt.Println(watchLine(name, windows.Load(), sink.Snapshot()))
					}
				}
			}(t.name, t.sink)
		}
		deadline := time.Now().Add(time.Duration(*secondsFlag) * time.Second)
		var totalWindows, totalOps, totalStates int
		implFailed := false
		seed := *seedFlag
		for time.Now().Before(deadline) {
			st, err := stress.Run(t.d, stress.Config{
				Threads:      *threadsFlag,
				OpsPerThread: *opsFlag,
				Windows:      200,
				Capacity:     t.capacity,
				Items:        t.items,
				Seed:         seed,
				Recorder:     fr,
				OwnerMode:    t.owner,
			})
			totalWindows += st.Windows
			totalOps += st.Ops
			totalStates += st.StatesExplored
			windows.Store(int64(totalWindows))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: FAILED after %d windows: %v\n", t.name, totalWindows, err)
				dumpRecorder(fr, flightPathOrEmpty(t.name))
				implFailed, failed = true, true
				break
			}
			seed++
		}
		close(stopWatch)
		if implFailed {
			continue // one implementation's failure must not mute the others' runs
		}
		fmt.Printf("%-10s %8d windows %10d ops  linearizable ✓ (%d checker states)\n",
			t.name, totalWindows, totalOps, totalStates)
		if *watchFlag && t.sink != nil {
			fmt.Println(watchLine(t.name, int64(totalWindows), t.sink.Snapshot()))
		}
		if *flightFlag != "" {
			if err := certify(fr, flightPath(t.name)); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flight replay FAILED: %v\n", t.name, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// flightPathOrEmpty is flightPath when -flight was given, else "".
func flightPathOrEmpty(impl string) string {
	if *flightFlag == "" {
		return ""
	}
	return flightPath(impl)
}
