// Package soak is the long-haul churn harness: it drives one deque
// backend with a sustained workload for a configurable duration,
// periodically quiescing the workers to sample memory occupancy
// (deque.MemStats) and runtime.MemStats, and then asserts a bounded
// steady state — every arena's structural audit must account for its
// Live at every sample (see arena.Arena.Occupancy), nothing may leak
// across a full drain, and no occupancy series may grow monotonically
// past warmup.
//
// This is the property PR-level unit tests cannot certify: that
// logically deleted nodes, retired dummies, LFRC counts and arena slabs
// all reach steady state under hours of churn, not just over one test's
// few thousand operations.  On violation the report carries a flight-
// recorder dump (the last windows of per-worker operations) and an
// occupancy timeline for post-mortem replay.
//
// Sampling discipline: workers run operations in short batches under a
// read lock; the sampler takes the write lock, so every sample is taken
// at full quiescence — which is what makes the conservation check exact
// rather than approximate, and lets the flight recorder rotate windows
// (a quiescence-requiring operation) at the same points.
package soak

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/deque"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/telemetry"
)

// Config parameterizes one soak cell (one backend × one workload).
type Config struct {
	// Backend is one of Backends(): array, list, dummy, lfrc, chaselev,
	// mutex.
	Backend string
	// Workload is one of Workloads(): storm (random push/pop pressure on
	// both ends), oscillate (alternating fill and drain phases), steal
	// (one producer, thieves batch-stealing), recycle (every element
	// transits the whole deque immediately — maximum node and dummy
	// traffic).
	Workload string
	// Workers is the goroutine count (default GOMAXPROCS, minimum 1).
	// Worker 0 is the owner thread for the chaselev backend.
	Workers int
	// Duration is the churn time (default 5s).
	Duration time.Duration
	// SampleEvery is the occupancy sampling period (default Duration/48,
	// clamped to [10ms, 2s]).
	SampleEvery time.Duration
	// Warmup is the fraction of samples excluded from the growth
	// regression (default 0.25): ramp-up growth is expected.
	Warmup float64
	// GrowthTol is the relative growth tolerance for occupancy series
	// (default 0.10): windowed means past warmup may not increase
	// monotonically by more than this fraction (plus CountSlack).
	GrowthTol float64
	// CountSlack is the absolute slack for count-valued series (default
	// 512 slots): growth below it is noise, whatever the ratio says.
	CountSlack int64
	// HeapSlackBytes is the absolute slack for the runtime heap series
	// (default 32 MiB): GC timing makes HeapAlloc means far noisier than
	// the arena ledgers.
	HeapSlackBytes uint64
	// MemBound, when > 0, builds the deque with
	// deque.WithMemoryBound(MemBound); rejected pushes are counted in
	// the report and treated as backpressure by the workloads.
	MemBound int64
	// LeakEvery, when > 0 on the lfrc backend, arms the seeded leak:
	// every LeakEvery-th LFRC release is dropped (a deliberately skipped
	// decrement).  A run with the leak armed MUST fail — that is the
	// harness's known-positive certification.
	LeakEvery uint64
	// Seed makes the workload's randomness reproducible (default 1).
	Seed uint64
	// Log, when non-nil, receives one-line progress messages.
	Log io.Writer
}

// Sample is one quiescent occupancy observation.
type Sample struct {
	Elapsed     time.Duration
	Ops         uint64
	Mem         deque.MemStats
	HeapAlloc   uint64
	HeapObjects uint64
}

// Report is one soak cell's outcome.
type Report struct {
	Backend   string
	Workload  string
	Workers   int
	Duration  time.Duration
	Ops       uint64
	BoundHits uint64 // pushes rejected by the memory bound
	LeakSkips uint64 // releases dropped by the seeded leak, if armed
	Baseline  deque.MemStats
	Final     deque.MemStats
	Samples   []Sample
	// Violations is empty on a clean run.  Each entry is one failed
	// assertion: a conservation break at a sample, monotone growth past
	// warmup, or a post-drain leak.
	Violations []string
	// FlightDump is the flight recorder's text dump (the last windows of
	// per-worker operation history), filled only when there are
	// violations.
	FlightDump string
}

// Failed reports whether the run violated any bounded-memory assertion.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

const (
	opsPerBatch = 64
	// growthWindows is how many windows the post-warmup samples are
	// split into for the monotone-growth check.
	growthWindows = 4
	// oscSamplesPerPhase: the oscillate workload switches between fill
	// and drain every this many samples, so one full period spans well
	// under one growth window and windowed means stay comparable.
	oscSamplesPerPhase = 4
	// nodeSlack tolerates the list deques' deferred physical deletions
	// that survive drain+compact (at most a couple of nodes per end).
	nodeSlack = 8
)

func (c *Config) setDefaults() error {
	if c.Backend == "" {
		c.Backend = "array"
	}
	if c.Workload == "" {
		c.Workload = "storm"
	}
	if !contains(Backends(), c.Backend) {
		return fmt.Errorf("soak: unknown backend %q (have %s)", c.Backend, strings.Join(Backends(), ", "))
	}
	if !contains(Workloads(), c.Workload) {
		return fmt.Errorf("soak: unknown workload %q (have %s)", c.Workload, strings.Join(Workloads(), ", "))
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.Duration / 48
	}
	if c.SampleEvery < 10*time.Millisecond {
		c.SampleEvery = 10 * time.Millisecond
	}
	if c.SampleEvery > 2*time.Second {
		c.SampleEvery = 2 * time.Second
	}
	if c.Warmup <= 0 || c.Warmup >= 0.9 {
		c.Warmup = 0.25
	}
	if c.GrowthTol <= 0 {
		c.GrowthTol = 0.10
	}
	if c.CountSlack <= 0 {
		c.CountSlack = 512
	}
	if c.HeapSlackBytes == 0 {
		c.HeapSlackBytes = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LeakEvery > 0 && c.Backend != "lfrc" {
		return fmt.Errorf("soak: the seeded leak targets the lfrc backend, not %q", c.Backend)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runner is one cell's shared state.
type runner struct {
	cfg  *Config
	d    soakDeque
	caps caps

	// gate is the quiescence barrier: workers hold the read side for one
	// batch of operations; the sampler takes the write side, so inside
	// it no operation is in flight.
	gate  sync.RWMutex
	stop  atomic.Bool
	phase atomic.Uint64 // sample counter, drives the oscillate workload

	size      atomic.Int64 // approximate live element count
	ops       atomic.Uint64
	boundHits atomic.Uint64

	rec *telemetry.FlightRecorder
}

// Run executes one soak cell and returns its report.  The error return
// covers configuration problems only; assertion failures land in
// Report.Violations.
func Run(cfg Config) (*Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	d, cp, err := build(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.LeakEvery > 0 {
		listdeque.SetLFRCLeakEvery(cfg.LeakEvery)
		defer listdeque.SetLFRCLeakEvery(0)
	}

	r := &runner{
		cfg:  &cfg,
		d:    d,
		caps: cp,
		rec:  telemetry.NewFlightRecorderSized(cfg.Workers, 256, telemetry.DefaultKeepWindows),
	}
	rep := &Report{
		Backend:  cfg.Backend,
		Workload: cfg.Workload,
		Workers:  cfg.Workers,
		Duration: cfg.Duration,
		Baseline: d.Mem(),
	}
	r.logf("soak %s/%s: %d workers, %v, sample %v",
		cfg.Backend, cfg.Workload, cfg.Workers, cfg.Duration, cfg.SampleEvery)

	// Open the first flight window before any worker exists — window
	// rotation requires quiescence, and after this point it only happens
	// under the gate's write lock.
	r.rec.BeginWindow(1<<20, nil)

	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for id := 0; id < cfg.Workers; id++ {
		go func(id int) {
			defer wg.Done()
			r.worker(id)
		}(id)
	}

	// Sampling loop: quiesce, observe, rotate the flight window.
	start := time.Now()
	ticker := time.NewTicker(cfg.SampleEvery)
	var ms runtime.MemStats
	for time.Since(start) < cfg.Duration {
		<-ticker.C
		r.gate.Lock() // all workers are between batches: quiescent
		mem := d.Mem()
		runtime.ReadMemStats(&ms)
		s := Sample{
			Elapsed:     time.Since(start),
			Ops:         r.ops.Load(),
			Mem:         mem,
			HeapAlloc:   ms.HeapAlloc,
			HeapObjects: ms.HeapObjects,
		}
		rep.Samples = append(rep.Samples, s)
		if err := mem.Conserved(); err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("sample %d (%v): %v", len(rep.Samples)-1, s.Elapsed.Round(time.Millisecond), err))
		}
		r.rec.BeginWindow(1<<20, r.itemsQuiesced())
		r.phase.Add(1)
		r.gate.Unlock()
	}
	ticker.Stop()
	r.stop.Store(true)
	wg.Wait()
	r.rec.EndWindow()

	// Drain everything (single-threaded now, so even the chaselev
	// backend's owner end is unowned) and give the list deques their
	// compaction pass, then run the leak audit.
	r.drain()
	rep.Final = d.Mem()
	rep.Ops = r.ops.Load()
	rep.BoundHits = r.boundHits.Load()
	rep.LeakSkips = listdeque.LFRCLeakSkips()
	if err := rep.Final.Conserved(); err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("post-drain: %v", err))
	}
	rep.Violations = append(rep.Violations, auditDrained(rep.Baseline, rep.Final)...)
	rep.Violations = append(rep.Violations, checkGrowth(&cfg, rep.Samples)...)

	if rep.Failed() {
		var b strings.Builder
		if err := r.rec.Dump(&b); err == nil {
			rep.FlightDump = b.String()
		}
		r.logf("soak %s/%s: FAIL: %d violation(s), %d ops", cfg.Backend, cfg.Workload, len(rep.Violations), rep.Ops)
	} else {
		r.logf("soak %s/%s: ok, %d ops, %d samples, slots hw %d",
			cfg.Backend, cfg.Workload, rep.Ops, len(rep.Samples), rep.Final.Slots.HighWater)
	}
	return rep, nil
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// itemsQuiesced returns the deque's current contents, for the flight
// window's initial state (nil if the core's snapshot fails).  Caller
// must hold the quiescence gate.
func (r *runner) itemsQuiesced() []uint64 {
	vs, err := r.d.Items()
	if err != nil {
		return nil
	}
	return vs
}

// drain empties the deque after the workers have stopped.
func (r *runner) drain() {
	for {
		if got := r.d.PopLMany(256); len(got) == 0 {
			break
		}
	}
	if c, ok := r.d.(interface{ Compact() }); ok {
		c.Compact()
	}
}

// auditDrained checks the post-drain ledgers against the baseline: all
// elements were popped, so live slot count must be back to the baseline,
// and the auxiliary node/object arenas may retain at most the deferred-
// deletion slack.  This is the assertion a skipped LFRC decrement cannot
// survive: leaked nodes stay live forever.
func auditDrained(base, fin deque.MemStats) []string {
	var v []string
	if fin.Slots.Live != base.Slots.Live {
		v = append(v, fmt.Sprintf("leak: %d element slots live after drain (baseline %d)",
			fin.Slots.Live, base.Slots.Live))
	}
	check := func(name string, b, f *deque.ArenaStats) {
		if b == nil || f == nil {
			return
		}
		if f.Live > b.Live+nodeSlack {
			v = append(v, fmt.Sprintf("leak: %d %s live after drain+compact (baseline %d, slack %d)",
				f.Live, name, b.Live, nodeSlack))
		}
	}
	check("nodes", base.Nodes, fin.Nodes)
	check("lfrc nodes", base.Lfrc, fin.Lfrc)
	if base.Rings != nil && fin.Rings != nil {
		if fin.Rings.Rings != fin.Rings.Retired+1 {
			v = append(v, fmt.Sprintf("rings: %d rings, %d retired after drain (want rings == retired+1)",
				fin.Rings.Rings, fin.Rings.Retired))
		}
	}
	return v
}

// series is one occupancy timeline the growth regression watches.
type series struct {
	name  string
	slack float64 // absolute growth below this is noise
	tol   float64 // relative growth tolerance
	get   func(Sample) float64
	ok    func(Sample) bool // series present in this run?
}

// checkGrowth is the windowed regression: split the post-warmup samples
// into growthWindows windows and flag any series whose window means
// increase strictly monotonically by more than the tolerance — the
// signature of a leak (bounded workloads fluctuate; leaks ratchet).
func checkGrowth(cfg *Config, samples []Sample) []string {
	warm := int(float64(len(samples)) * cfg.Warmup)
	post := samples[warm:]
	if len(post) < 2*growthWindows {
		return nil // too short to regress; the drain audit still ran
	}
	all := []series{
		{name: "slots.live", slack: float64(cfg.CountSlack), tol: cfg.GrowthTol,
			get: func(s Sample) float64 { return float64(s.Mem.Slots.Live) },
			ok:  func(Sample) bool { return true }},
		{name: "nodes.live", slack: float64(cfg.CountSlack), tol: cfg.GrowthTol,
			get: func(s Sample) float64 { return float64(s.Mem.Nodes.Live) },
			ok:  func(s Sample) bool { return s.Mem.Nodes != nil }},
		{name: "lfrc.live", slack: float64(cfg.CountSlack), tol: cfg.GrowthTol,
			get: func(s Sample) float64 { return float64(s.Mem.Lfrc.Live) },
			ok:  func(s Sample) bool { return s.Mem.Lfrc != nil }},
		{name: "rings.bytes", slack: 1 << 20, tol: cfg.GrowthTol,
			get: func(s Sample) float64 { return float64(s.Mem.Rings.Bytes) },
			ok:  func(s Sample) bool { return s.Mem.Rings != nil }},
		// The runtime heap is the end-to-end belt-and-braces series: far
		// noisier than the arena ledgers (GC timing), so it gets a wide
		// tolerance — the arena counters catch real leaks exactly.
		{name: "heap.alloc", slack: float64(cfg.HeapSlackBytes), tol: 0.5,
			get: func(s Sample) float64 { return float64(s.HeapAlloc) },
			ok:  func(Sample) bool { return true }},
	}
	var v []string
	for _, sr := range all {
		if !sr.ok(post[0]) {
			continue
		}
		means := windowMeans(post, sr.get, growthWindows)
		rising := true
		for i := 1; i < len(means); i++ {
			if means[i] <= means[i-1] {
				rising = false
				break
			}
		}
		if !rising {
			continue
		}
		growth := means[len(means)-1] - means[0]
		if growth > sr.slack && growth > sr.tol*means[0] {
			v = append(v, fmt.Sprintf(
				"monotonic growth past warmup: %s window means %s (+%.0f over %d windows)",
				sr.name, fmtMeans(means), growth, growthWindows))
		}
	}
	return v
}

func windowMeans(samples []Sample, get func(Sample) float64, k int) []float64 {
	means := make([]float64, k)
	n := len(samples)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		sum := 0.0
		for _, s := range samples[lo:hi] {
			sum += get(s)
		}
		means[i] = sum / float64(hi-lo)
	}
	return means
}

func fmtMeans(ms []float64) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%.0f", m)
	}
	return strings.Join(parts, " → ")
}

// WriteTimeline renders the sampled occupancy series as CSV — the
// post-mortem artifact CI uploads on failure.  aux_* columns carry the
// node arena (list/dummy) or LFRC pool (lfrc); zero elsewhere.
func (r *Report) WriteTimeline(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "elapsed_ms,ops,slots_live,slots_allocs,slots_frees,slots_retired,slots_high_water,aux_live,aux_allocs,aux_frees,aux_retired,aux_high_water,rings_bytes,heap_alloc,heap_objects"); err != nil {
		return err
	}
	for _, s := range r.Samples {
		var aux deque.ArenaStats
		if s.Mem.Nodes != nil {
			aux = *s.Mem.Nodes
		} else if s.Mem.Lfrc != nil {
			aux = *s.Mem.Lfrc
		}
		var ringBytes uint64
		if s.Mem.Rings != nil {
			ringBytes = s.Mem.Rings.Bytes
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Elapsed.Milliseconds(), s.Ops,
			s.Mem.Slots.Live, s.Mem.Slots.Allocs, s.Mem.Slots.Frees, s.Mem.Slots.Retired, s.Mem.Slots.HighWater,
			aux.Live, aux.Allocs, aux.Frees, aux.Retired, aux.HighWater,
			ringBytes, s.HeapAlloc, s.HeapObjects); err != nil {
			return err
		}
	}
	return nil
}
