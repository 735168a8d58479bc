// Command dequebench runs the experiment suite of EXPERIMENTS.md outside
// `go test`, printing one results table per experiment.  It is the
// counterpart of the paper's (unreported) measurements: every table can be
// regenerated with a single command.
//
// Usage:
//
//	dequebench [-exp all|b1|b2|b3|b4|b6|b7|b8|lat|contend|telem|sched|latobs|serve] [-ops N]
//	           [-workers list] [-csv] [-json path] [-cpuprofile path]
//	           [-serve-duration 2s] [-serve-cert 1000]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/baseline/greenwald"
	"dcasdeque/internal/baseline/mutexdeque"
	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/workload"
)

var (
	expFlag     = flag.String("exp", "all", "experiment to run: all, b1, b2, b3, b4, b6, b7, b8, lat, contend, telem, sched, latobs, serve")
	opsFlag     = flag.Int("ops", 200000, "operations per worker per measurement")
	workersFlag = flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	csvFlag     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonFlag    = flag.String("json", "", "write the contend/telem/sched/latobs/serve experiment's results as JSON to this file")
	profFlag    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run is main's body; it returns the exit code so that deferred cleanup
// (profile stop) runs on every path.
func run() int {
	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequebench:", err)
		return 2
	}
	if *profFlag != "" {
		f, err := os.Create(*profFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dequebench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dequebench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	runs := map[string]func(io, int, []int){
		"b1": expB1, "b2": expB2, "b3": expB3, "b4": expB4,
		"b6": expB6, "b7": expB7, "b8": expB8, "lat": expLat,
		"contend": expContend, "telem": expTelem, "sched": expSched,
		"latobs": expLatobs, "serve": expServe,
	}
	out := io{csv: *csvFlag}
	if *expFlag == "all" {
		for _, k := range []string{"b1", "b2", "b3", "b4", "b6", "b7", "b8", "lat", "contend", "telem", "sched", "latobs"} {
			runs[k](out, *opsFlag, workers)
		}
		return 0
	}
	f, ok := runs[strings.ToLower(*expFlag)]
	if !ok {
		fmt.Fprintf(os.Stderr, "dequebench: unknown experiment %q\n", *expFlag)
		return 2
	}
	f(out, *opsFlag, workers)
	return 0
}

type io struct{ csv bool }

func (o io) emit(title string, t *metrics.Table) {
	fmt.Printf("== %s ==\n", title)
	if o.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
	fmt.Println()
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// expB1 measures primitive latencies (the Section 2 cost assumption).
func expB1(o io, ops int, _ []int) {
	t := metrics.NewTable("primitive", "ns/op")
	timeIt := func(name string, f func(n int)) {
		start := time.Now()
		f(ops)
		t.AddRow(name, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	var l dcas.Loc
	var sink uint64
	timeIt("read", func(n int) {
		for i := 0; i < n; i++ {
			sink += l.Load()
		}
	})
	_ = sink
	timeIt("cas", func(n int) {
		for i := 0; i < n; i++ {
			l.CAS(uint64(i), uint64(i+1))
		}
	})
	p := new(dcas.TwoLock)
	var x, y dcas.Loc
	timeIt("dcas(two-lock)", func(n int) {
		for i := 0; i < n; i++ {
			p.DCAS(&x, &y, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
		}
	})
	g := new(dcas.GlobalLock)
	var x2, y2 dcas.Loc
	timeIt("dcas(global-lock)", func(n int) {
		for i := 0; i < n; i++ {
			g.DCAS(&x2, &y2, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
		}
	})
	o.emit("B1: primitive latencies (expect read < cas < dcas)", t)
}

func makers(capacity int) []struct {
	name string
	mk   func() workload.Deque
} {
	return []struct {
		name string
		mk   func() workload.Deque
	}{
		{"array", func() workload.Deque { return arraydeque.New(capacity) }},
		{"list", func() workload.Deque { return listdeque.New(listdeque.WithMaxNodes(capacity*8 + 16)) }},
		{"greenwald", func() workload.Deque { return greenwald.New(capacity, nil) }},
		{"mutex", func() workload.Deque { return mutexdeque.New(capacity) }},
	}
}

// expB2 measures two-end concurrency with split-ends workers.
func expB2(o io, ops int, workers []int) {
	t := metrics.NewTable("impl", "workers", "ops/s", "full", "empty")
	for _, w := range workers {
		if w%2 != 0 && w != 1 {
			continue
		}
		for _, m := range makers(1 << 12) {
			res, err := workload.RunMix(m.mk(), workload.MixConfig{
				Workers: w, OpsPerWorker: ops, PushPct: 50, SplitEnds: true,
				Seed: 42, Prefill: 64,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "b2:", err)
				continue
			}
			t.AddRow(m.name, w, res.Throughput.PerSecond(), res.Full, res.Empty)
		}
	}
	o.emit("B2: split-ends throughput (two-end concurrency)", t)
}

// expB3 measures mixed-operation throughput across mixes and workers.
func expB3(o io, ops int, workers []int) {
	t := metrics.NewTable("impl", "workers", "push%", "ops/s")
	for _, w := range workers {
		for _, pct := range []int{20, 50, 80} {
			for _, m := range makers(1 << 10) {
				res, err := workload.RunMix(m.mk(), workload.MixConfig{
					Workers: w, OpsPerWorker: ops, PushPct: pct, Seed: 7, Prefill: 64,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "b3:", err)
					continue
				}
				t.AddRow(m.name, w, pct, res.Throughput.PerSecond())
			}
		}
	}
	o.emit("B3: operation-mix throughput", t)
}

// expB4 runs the work-stealing computation.
func expB4(o io, _ int, workers []int) {
	const depth = 14
	t := metrics.NewTable("impl", "workers", "tasks/s", "steals")
	for _, w := range workers {
		cfg := workload.StealConfig{Workers: w, Depth: depth, Capacity: 1 << 10, Seed: 3}
		for _, m := range makers(1 << 10) {
			res, err := workload.RunSteal(m.mk, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "b4:", err)
				continue
			}
			t.AddRow(m.name, w, float64(res.Leaves)/res.Elapsed.Seconds(), res.Steals)
		}
		res, err := workload.RunStealABP(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "b4:", err)
			continue
		}
		t.AddRow("abp", w, float64(res.Leaves)/res.Elapsed.Seconds(), res.Steals)
	}
	o.emit(fmt.Sprintf("B4: work stealing (task tree depth %d)", depth), t)
}

// expB6 compares DCAS emulations, with DCAS retry statistics.
func expB6(o io, ops int, workers []int) {
	t := metrics.NewTable("impl", "provider", "workers", "ops/s", "dcas", "dcas-failed")
	for _, w := range workers {
		for _, prov := range []string{"two-lock", "global"} {
			var st dcas.Stats
			var p dcas.Provider
			if prov == "two-lock" {
				p = dcas.Instrumented(new(dcas.TwoLock), &st)
			} else {
				p = dcas.Instrumented(new(dcas.GlobalLock), &st)
			}
			impls := []struct {
				name string
				d    workload.Deque
			}{
				{"array", arraydeque.New(1<<10, arraydeque.WithProvider(p))},
				{"list", listdeque.New(listdeque.WithProvider(p))},
			}
			for _, im := range impls {
				st.Reset()
				res, err := workload.RunMix(im.d, workload.MixConfig{
					Workers: w, OpsPerWorker: ops, PushPct: 50, Seed: 5, Prefill: 64,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "b6:", err)
					continue
				}
				t.AddRow(im.name, prov, w, res.Throughput.PerSecond(),
					st.Attempts.Load(), st.Failures.Load())
			}
		}
	}
	o.emit("B6: DCAS emulation ablation", t)
}

// expB7 ablates the paper's optional optimizations on the array deque.
func expB7(o io, ops int, workers []int) {
	t := metrics.NewTable("variant", "capacity", "workers", "ops/s")
	variants := []struct {
		name string
		opts []arraydeque.Option
	}{
		{"strong+recheck", nil},
		{"strong", []arraydeque.Option{arraydeque.WithRecheckIndex(false)}},
		{"weak+recheck", []arraydeque.Option{arraydeque.WithStrongDCAS(false)}},
		{"weak", []arraydeque.Option{arraydeque.WithStrongDCAS(false), arraydeque.WithRecheckIndex(false)}},
	}
	for _, w := range workers {
		for _, cap := range []int{2, 1 << 10} {
			for _, v := range variants {
				d := arraydeque.New(cap, v.opts...)
				res, err := workload.RunMix(d, workload.MixConfig{
					Workers: w, OpsPerWorker: ops, PushPct: 50, Seed: 13,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "b7:", err)
					continue
				}
				t.AddRow(v.name, cap, w, res.Throughput.PerSecond())
			}
		}
	}
	o.emit("B7: optional-optimization ablation (Section 3)", t)
}

// expB8 ablates reclamation strategies.
func expB8(o io, ops int, workers []int) {
	t := metrics.NewTable("config", "workers", "ops/s")
	for _, w := range workers {
		cases := []struct {
			name string
			mk   func() workload.Deque
		}{
			{"list/reuse-lazy", func() workload.Deque { return listdeque.New() }},
			{"list/reuse-eager", func() workload.Deque { return listdeque.New(listdeque.WithEagerDelete(true)) }},
			{"list/gc", func() workload.Deque {
				return listdeque.New(listdeque.WithNodeReuse(false),
					listdeque.WithMaxNodes(w*ops+1024))
			}},
			{"list/dummy-nodes", func() workload.Deque { return listdeque.NewDummy() }},
			{"list/lfrc", func() workload.Deque { return listdeque.NewLFRC() }},
		}
		for _, c := range cases {
			res, err := workload.RunMix(c.mk(), workload.MixConfig{
				Workers: w, OpsPerWorker: ops, PushPct: 50, Seed: 17, Prefill: 64,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "b8:", err)
				continue
			}
			t.AddRow(c.name, w, res.Throughput.PerSecond())
		}
		// Allocator-level bulk ablation.
		for _, mode := range []string{"arena/shared", "arena/bulk"} {
			a := arena.New[uint64](1 << 12)
			start := time.Now()
			if mode == "arena/shared" {
				for i := 0; i < ops; i++ {
					if idx, ok := a.Alloc(arena.Right); ok {
						a.Free(arena.Right, idx)
					}
				}
			} else {
				c := arena.NewCache(a, arena.Right, 32)
				for i := 0; i < ops; i++ {
					if idx, ok := c.Alloc(); ok {
						c.Free(idx)
					}
				}
				c.Drain()
			}
			t.AddRow(mode, 1, float64(ops)/time.Since(start).Seconds())
		}
	}
	o.emit("B8: reclamation ablation (gc / reuse / eager; bulk allocation)", t)
}

// expLat measures per-operation latency distributions for each
// implementation under a concurrent 50/50 mix: one histogram per worker,
// merged afterwards, so recording adds no cross-thread traffic.
func expLat(o io, ops int, workers []int) {
	t := metrics.NewTable("impl", "workers", "mean(ns)", "p50(ns)", "p99(ns)", "max(ns)")
	for _, w := range workers {
		for _, m := range makers(1 << 10) {
			d := m.mk()
			for i := 0; i < 64; i++ {
				d.PushRight(uint64(i) + 1e9)
			}
			hists := make([]metrics.Histogram, w)
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := &hists[g]
					base := uint64(g+1) << 32
					for i := 0; i < ops; i++ {
						start := time.Now()
						switch i % 4 {
						case 0:
							d.PushLeft(base + uint64(i))
						case 1:
							d.PushRight(base + uint64(i))
						case 2:
							d.PopLeft()
						default:
							d.PopRight()
						}
						h.RecordSince(start)
					}
				}(g)
			}
			wg.Wait()
			var all metrics.Histogram
			for g := range hists {
				all.Merge(&hists[g])
			}
			t.AddRow(m.name, w, all.Mean(),
				all.Quantile(0.50), all.Quantile(0.99), all.Max())
		}
	}
	o.emit("LAT: per-operation latency distribution (50/50 mix)", t)
}
