// Command perfbench is the repository's layered benchmark: four
// workloads that load the DCAS primitive, the deque, the scheduler and
// the job server in turn, each measured from outside through the public
// APIs of deque, sched and serve. See README.md for why each workload
// exists and which layers it loads and bypasses.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures one workload untraced and prints its end-to-end
// metrics. --trace 1 runs the traced sweep: every workload once
// untraced and once traced, each for an eighth of --seconds, and prints
// the per-layer metrics, span self times and tracing overhead. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workloads lists the benchmark's workloads in the order the traced
// sweep runs them.
var workloads = []struct {
	name string
	run  func(runConfig) (*pass, error)
}{
	{"deque-ends", func(c runConfig) (*pass, error) { return runDequeEnds(c, false) }},
	{"deque-ends-lat", func(c runConfig) (*pass, error) { return runDequeEnds(c, true) }},
	{"sched-fib", runSchedFib},
	{"serve-echo", runServeEcho},
}

const (
	trials       = 12 // untraced: systems built and measured in turn
	tracedPasses = 8  // the traced sweep's passes share --seconds
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure: deque-ends, deque-ends-lat, sched-fib or serve-echo")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "length of the measured window, seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of --workload; 1: traced sweep with per-layer metrics")
	spanDir := fs.String("spans", ".bench_build/perfbench-spans", "directory the traced sweep writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	idx := -1
	for i, w := range workloads {
		if w.name == *name {
			idx = i
		}
	}
	switch {
	case idx < 0:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// A lost task or response would hang the load forever; end the run
	// as failed, without a result, well before any caller gives up.
	watchdog := 2*time.Duration(*seconds)*time.Second + time.Minute
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: run did not finish within %v\n", watchdog)
		os.Exit(1)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stdout, "env gomaxprocs=%d num_cpu=%d go=%s seed=%d workload=%s seconds=%d trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *seed, *name, *seconds, *trace)

	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = untraced(stdout, idx, runConfig{seed: *seed, window: window, trials: trials})
	} else {
		res, err = tracedSweep(stdout, *spanDir, runConfig{seed: *seed, window: window / tracedPasses, trials: 1})
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness checks failed")
		return 1
	}
	return 0
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]mvalue `json:"metrics"`
}

type mvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds a pass's counts and checks into the result.
func (r *result) add(p *pass) {
	r.Attempted += p.ops
	r.Failed += min(p.failed, p.ops)
	if len(p.checks) > 0 {
		r.Correct = false
	}
}

func (r *result) set(ms []metric) {
	for _, m := range ms {
		r.Metrics[m.name] = mvalue{m.value, m.unit}
	}
}

func (r result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints a pass's counts, failed checks, notes and metrics.
func report(w io.Writer, p *pass, ms []metric) {
	mode := "untraced"
	if p.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "pass %s %s: ops=%d failed=%d latency_samples=%d trials=%d window_s=%.3f allocs_per_op=%.4g\n",
		p.workload, mode, p.ops, p.failed, p.samples(), len(p.figs),
		p.use.wall.Seconds(), share(float64(p.use.mallocs), float64(p.ops)))
	for _, f := range p.figs {
		fmt.Fprintf(w, "  trial: rate=%.4g/s p50=%.4gus p99=%.4gus cpu/op=%.4gus samples=%d\n",
			f.rate, f.p50/1e3, f.p99/1e3, f.cpuPerOp/1e3, f.samples)
	}
	for _, c := range p.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
	for _, n := range p.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

func untraced(w io.Writer, idx int, cfg runConfig) (result, error) {
	p, err := runTrials(cfg, workloads[idx].run)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workloads[idx].name, err)
	}
	ms := endToEnd(p)
	report(w, p, ms)
	res := result{Correct: true, Metrics: map[string]mvalue{}}
	res.add(p)
	res.set(ms)
	return res, nil
}

// tracedSweep runs every workload untraced and then traced, and
// reports the per-layer metrics: the traced passes' own, the cost of
// the latency telemetry, allocation rates, and the tracing overhead
// (traced minus untraced end-to-end figures).
func tracedSweep(w io.Writer, spanDir string, cfg runConfig) (result, error) {
	res := result{Correct: true, Metrics: map[string]mvalue{}}
	plain := map[string][]metric{}
	for _, wl := range workloads {
		var e2e [2][]metric
		for i, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			p, err := runTrials(c, wl.run)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", wl.name, err)
			}
			e2e[i] = endToEnd(p)
			report(w, p, append(e2e[i], p.layer...))
			res.add(p)
			res.set(p.layer)
			if !traced {
				plain[wl.name] = e2e[i]
				res.set([]metric{{"runtime." + wl.name + ".allocs_per_op", "count", share(float64(p.use.mallocs), float64(p.ops))}})
				continue
			}
			for _, st := range selfTimes(p.spans) {
				fmt.Fprintf(w, "  span %-18s n=%-8d dur_p50_ns=%-10.0f self_p50_ns=%.0f\n", st.Name, st.Count, st.DurP50, st.SelfP50)
			}
			path, err := writeSpans(spanDir, wl.name, p.spans)
			if err != nil {
				return result{}, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(w, "  spans written to %s\n", path)
		}
		// Tracing overhead on the two figures every workload has.
		res.set([]metric{
			{"trace." + wl.name + ".throughput_delta_share", "share",
				share(valueOf(e2e[1], "throughput_per_s")-valueOf(e2e[0], "throughput_per_s"), valueOf(e2e[0], "throughput_per_s"))},
			{"trace." + wl.name + ".latency_p50_delta_us", "us", valueOf(e2e[1], "latency_p50_us") - valueOf(e2e[0], "latency_p50_us")},
		})
	}
	// The latency telemetry's cost: the same streams with and without it.
	res.set([]metric{{"telemetry.lat_cost_ns_per_op", "ns",
		(valueOf(plain["deque-ends-lat"], "cpu_us_per_op") - valueOf(plain["deque-ends"], "cpu_us_per_op")) * 1e3}})
	return res, nil
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	panic("perfbench: no metric " + name)
}
