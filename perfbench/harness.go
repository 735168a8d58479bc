package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runConfig is what every workload receives: the seed its inputs come
// from, how long to measure, whether to trace, and in how many trials,
// each on a freshly built system (the set-up time reported is the
// median of their builds).
type runConfig struct {
	seed   uint64
	window time.Duration
	traced bool
	trials int
}

// pass is one measured window of one workload.
type pass struct {
	workload string
	traced   bool
	setups   []time.Duration
	ops      uint64    // operations completed in the window
	failed   uint64    // operations that returned an error or a wrong result
	lat      []uint32  // exact per-operation latency samples, ns
	figs     []figures // one per trial, filled by runTrials
	use      usage     // resources the window consumed
	checks   []string  // correctness checks that failed
	layer    []metric  // per-layer metrics; traced passes only
	spans    []span    // traced passes only
	notes    []string  // findings printed with the pass
}

// samples is the number of latency samples behind the run's figures.
func (p *pass) samples() int {
	n := 0
	for _, f := range p.figs {
		n += f.samples
	}
	return n
}

// fail records a failed correctness check.
func (p *pass) fail(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// metric is one named, unit-carrying figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// epoch anchors now: time.Since reads only the monotonic clock.
var epoch = time.Now()

// now is the benchmark's clock for latencies and spans, in ns.
func now() int64 { return int64(time.Since(epoch)) }

// nsSample clamps a duration into a uint32 latency sample.
func nsSample(d int64) uint32 { return uint32(min(max(d, 0), 1<<32-1)) }

// timedBuild builds the system under test and reports how long it took.
func timedBuild[T any](build func() (T, error)) (T, []time.Duration, error) {
	t0 := time.Now()
	s, err := build()
	return s, []time.Duration{time.Since(t0)}, err
}

// runTrials runs a workload cfg.trials times, each on a freshly built
// system under test measured for an equal share of cfg.window, and
// reports each end-to-end figure as its median over the trials. On a
// small shared machine a stretch of a run can go at a different speed —
// the host slows a virtual processor for seconds at a time, or the Go
// scheduler leaves both load goroutines on one processor for a while —
// and a median over many short trials ignores the stretches that a
// figure pooled over the whole run would absorb. The returned pass
// sums the trials' counts and keeps the last trial's per-layer results.
func runTrials(cfg runConfig, trial func(runConfig) (*pass, error)) (*pass, error) {
	c := cfg
	c.window = cfg.window / time.Duration(cfg.trials)
	var all *pass
	for range cfg.trials {
		p, err := trial(c)
		if err != nil {
			return nil, err
		}
		// The trial's samples live in reused buffers: summarize them now.
		p.figs = []figures{{
			rate:     share(float64(p.ops), p.use.wall.Seconds()),
			p50:      quantile(p.lat, 0.50),
			p99:      quantile(p.lat, 0.99),
			cpuPerOp: share(float64(p.use.cpu), float64(p.ops)),
			samples:  len(p.lat),
		}}
		if all == nil {
			all = p
			continue
		}
		all.figs = append(all.figs, p.figs...)
		all.setups = append(all.setups, p.setups...)
		all.ops += p.ops
		all.failed += p.failed
		all.use = all.use.add(p.use)
		all.checks = append(all.checks, p.checks...)
		all.layer, all.spans, all.notes = p.layer, p.spans, p.notes
	}
	return all, nil
}

// figures are one trial's end-to-end figures: its rate (ops/s),
// latency percentiles (ns) over its samples, and CPU time per op (ns).
type figures struct {
	rate, p50, p99, cpuPerOp float64
	samples                  int
}

// sampleBufs holds the latency-sample buffers, keyed by use. A trial
// reuses the buffer the first trial allocated, so later trials do not
// grow the heap and the peak resident set reflects the system under
// test rather than the number of trials.
var sampleBufs = map[string][]uint32{}

func sampleBuf(key string, n int) []uint32 {
	if b := sampleBufs[key]; len(b) == n {
		return b
	}
	b := make([]uint32, n)
	sampleBufs[key] = b
	return b
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user + system, every thread
	mallocs uint64
	gcCPU   float64 // seconds, runtime/metrics estimate
	allCPU  float64 // seconds, runtime/metrics estimate
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(usageSamples)
	return usage{
		wall:    time.Since(epoch),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   usageSamples[0].Value.Float64(),
		allCPU:  usageSamples[1].Value.Float64(),
	}
}

func (u usage) add(v usage) usage {
	return usage{
		wall:    u.wall + v.wall,
		cpu:     u.cpu + v.cpu,
		mallocs: u.mallocs + v.mallocs,
		gcCPU:   u.gcCPU + v.gcCPU,
		allCPU:  u.allCPU + v.allCPU,
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		wall:    u.wall - v.wall,
		cpu:     u.cpu - v.cpu,
		mallocs: u.mallocs - v.mallocs,
		gcCPU:   u.gcCPU - v.gcCPU,
		allCPU:  u.allCPU - v.allCPU,
	}
}

// maxRSS reports the process's peak resident set, in MiB.
func maxRSS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// measure runs one timed window: it collects the garbage set-up and
// warm-up left, starts the load, sleeps through the window, then calls
// stop, which must return only after every load goroutine has exited.
// It fills p.use.
func measure(window time.Duration, p *pass, start, stop func()) {
	runtime.GC()
	before := readUsage()
	start()
	time.Sleep(window)
	stop()
	p.use = readUsage().sub(before)
}

// endToEnd returns the end-to-end metrics of a run, in the order and
// with the names BENCHMARK.json lists: each the median over the trials
// of the trial's figure.
func endToEnd(p *pass) []metric {
	over := func(f func(figures) float64) float64 {
		xs := make([]float64, len(p.figs))
		for i, fg := range p.figs {
			xs[i] = f(fg)
		}
		return median(xs)
	}
	return []metric{
		{"throughput_per_s", "1/s", over(func(f figures) float64 { return f.rate })},
		{"latency_p50_us", "us", over(func(f figures) float64 { return f.p50 }) / 1e3},
		{"latency_p99_us", "us", over(func(f figures) float64 { return f.p99 }) / 1e3},
		{"cpu_us_per_op", "us", over(func(f figures) float64 { return f.cpuPerOp }) / 1e3},
		{"max_rss_mb", "MiB", maxRSS()},
		{"setup_s", "s", medianDuration(p.setups).Seconds()},
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
