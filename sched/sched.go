// Package sched is a fork-join work-stealing task scheduler built on
// the package deque deques — the application the paper itself names as
// the deques' destination ("deques ... currently used in load balancing
// algorithms", after Arora, Blumofe and Plaxton).
//
// Each worker goroutine owns one deque and treats it as a LIFO stack on
// the right end: the most recently spawned — smallest, hottest — task
// runs first, the locality argument of the work-stealing literature.
// Idle workers steal from the left end of a victim's deque, taking the
// oldest — largest — tasks and therefore stealing rarely.  The DCAS
// deque is what makes this split natural: unlike the specialized ABP
// deque, it permits unrestricted concurrent access to both ends, so
// thieves can take a *batch* from the left (half the victim's load, up
// to a cap) while the owner keeps working the right, and the external
// injector can be an ordinary deque used as a bounded MPMC FIFO.
//
// The deque implementation is pluggable (WithArrayDeques, WithDeques):
// the scheduler is written against the deque.Deque interface, so the
// array deque of Section 3, the list deques of Section 4 (all three
// reclamation variants), the native Chase–Lev work-stealing deque
// (WithChaseLev — no DCAS emulation, the throughput backend) and the
// mutex baseline all slot in — BenchmarkSched races them against each
// other under identical scheduling load.
//
// Worker lifecycle is spin → yield → park: a worker that misses finds
// work a few times retries hot, then yields the processor, then parks
// on a per-worker channel after publishing itself on a lock-free idle
// stack (Treiber stack with an ABA tag).  The parking protocol is the
// Dekker shape — publish idleness, then re-check for work — paired
// with submitters and spawners who publish work, then check for idlers;
// the two checks are sequentially consistent atomics, so at least one
// side always observes the other and no wakeup is lost.
//
// Submission and shutdown linearize on a single "life" word holding a
// drain bit and a pending count: Submit joins via CAS (failing once the
// drain bit is set), and the state "draining, zero pending" is
// quiescence, the workers' exit condition.  The running tasks do not
// touch that shared word per task.  Each worker banks every task it
// completes as one unit of owner-only credit; Spawn spends a credit
// when it has one and only otherwise increments the word (the parent's
// count keeps the word live, so no drain check is needed), and a worker
// returns its whole credit in one subtraction each time it misses
// finding work.  The invariant is
//
//	pending = unfinished tasks + Σ worker credits
//
// and since a worker flushes before it checks for quiescence, and
// before it spins, yields or parks, credit is only ever held by a
// worker that is still looking for work.  Quiescence therefore stays
// one load of one word.  The subtraction that moves the word to
// "draining, zero pending" wakes every parked worker so they observe
// quiescence and exit.  Shutdown(ctx) therefore drains: every task
// accepted before shutdown — and everything those tasks transitively
// spawn — runs exactly once before the workers stop.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"dcasdeque/deque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/telemetry"
)

// Errors returned by submission.
var (
	// ErrShutdown is returned by Submit and TrySubmit after Shutdown has
	// been called.
	ErrShutdown = errors.New("sched: scheduler is shut down")
	// ErrSaturated is returned by TrySubmit when the injector queue is
	// full; Submit blocks instead (backpressure).
	ErrSaturated = errors.New("sched: injector saturated")
)

// Task is one unit of work.  The worker executing it is passed in so
// the task can Spawn subtasks onto that worker's own deque — the
// fork half of fork-join.
type Task func(w *Worker)

// Option configures New.
type Option func(*config)

type config struct {
	workers       int
	mkDeque       func(id int) deque.Deque[Task]
	mkInjector    func(capacity int) deque.Deque[Task]
	dequeCap      int
	injectorCap   int
	stealBatch    int
	spinRounds    int
	telemetry     bool
	telemetryName string
	latency       bool
	tracing       bool
}

func defaultConfig() config {
	return config{
		workers:     runtime.GOMAXPROCS(0),
		dequeCap:    8192,
		injectorCap: 1024,
		stealBatch:  16,
		spinRounds:  4,
	}
}

// WithWorkers sets the worker count (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithDeques supplies the per-worker deque factory, called once per
// worker id.  Any deque.Deque[Task] works; the prebuilt selectors
// below cover the in-repo implementations.
func WithDeques(mk func(id int) deque.Deque[Task]) Option {
	return func(c *config) { c.mkDeque = mk }
}

// WithArrayDeques selects bounded array deques (Section 3) for the
// workers, forwarding dopts (e.g. deque.WithEndLockDCAS).  This is the
// default, with capacity WithDequeCapacity.
func WithArrayDeques(dopts ...deque.Option) Option {
	return func(c *config) {
		cap := &c.dequeCap
		c.mkDeque = func(int) deque.Deque[Task] { return deque.NewArray[Task](*cap, dopts...) }
	}
}

// WithListDeques selects unbounded list deques (Section 4) for the
// workers, forwarding dopts (e.g. deque.WithDummyNodes, deque.WithLFRC).
func WithListDeques(dopts ...deque.Option) Option {
	return func(c *config) {
		c.mkDeque = func(int) deque.Deque[Task] { return deque.NewList[Task](dopts...) }
	}
}

// WithChaseLev selects the native single-CAS Chase–Lev work-stealing
// deques for the workers, forwarding dopts (e.g. deque.WithTelemetry).
// This is the backend the scheduler's access pattern was made for: each
// worker is the sole user of its deque's owner end (PushRight in Spawn
// and keep, PopRight in next — exactly the Chase–Lev owner contract),
// while thieves only PopLMany the left end, so the hot path runs on
// plain stores plus one CAS per steal batch with no DCAS emulation
// underneath.  The worker deques grow instead of overflowing
// (WithDequeCapacity does not apply); the injector stays a shared
// array deque, since external submitters are not the owner.
func WithChaseLev(dopts ...deque.Option) Option {
	return func(c *config) {
		c.mkDeque = func(int) deque.Deque[Task] { return deque.NewChaseLev[Task](dopts...) }
	}
}

// WithMutexDeques selects the blocking baseline deques for the workers.
func WithMutexDeques(dopts ...deque.Option) Option {
	return func(c *config) {
		cap := &c.dequeCap
		c.mkDeque = func(int) deque.Deque[Task] { return deque.NewMutex[Task](*cap, dopts...) }
	}
}

// WithDequeCapacity sets the per-worker deque capacity used by the
// bounded factories (default 8192).  A full worker deque is not an
// error — spawns overflow to the injector and then to inline execution.
func WithDequeCapacity(n int) Option {
	return func(c *config) { c.dequeCap = n }
}

// WithInjectorCapacity bounds the external submission queue (default
// 1024).  A full injector is backpressure: TrySubmit fails with
// ErrSaturated and Submit blocks.
func WithInjectorCapacity(n int) Option {
	return func(c *config) { c.injectorCap = n }
}

// WithInjector supplies the factory for the external submission queue,
// called once with the configured injector capacity (the default is a
// bounded array deque).  The scheduler uses the deque as a bounded MPMC
// FIFO: PushRight from submitters, PopLMany from workers.  Any push
// failure — ErrFull, or ErrMemoryBound from a deque built with
// deque.WithMemoryBound — is surfaced as ErrSaturated backpressure, so
// a memory-bounded injector turns a memory budget into admission
// control.
func WithInjector(mk func(capacity int) deque.Deque[Task]) Option {
	return func(c *config) { c.mkInjector = mk }
}

// WithStealBatch caps how many tasks one steal transfers (default 16).
// A thief takes half the victim's apparent load up to this cap.
func WithStealBatch(n int) Option {
	return func(c *config) { c.stealBatch = n }
}

// WithSpinRounds sets how many consecutive find-work misses a worker
// tolerates hot before it starts yielding, and then twice that before
// parking (default 4).
func WithSpinRounds(n int) Option {
	return func(c *config) { c.spinRounds = n }
}

// WithTelemetry enables the scheduler's per-worker counters
// (runs/spawns/steals/parks/wakes...), readable via Stats.
func WithTelemetry() Option {
	return func(c *config) { c.telemetry = true }
}

// WithTelemetryName enables telemetry and registers it under the given
// name with the process-wide exporter (deque.PrometheusHandler, as the
// sched="name" series), like deque.WithTelemetryName.
func WithTelemetryName(name string) Option {
	return func(c *config) { c.telemetry = true; c.telemetryName = name }
}

// life-word layout: the top bit is the drain flag, the rest counts
// accepted-but-unfinished tasks.  The word's whole point is that
// "draining" and "pending == 0" are one atomic observation: the state
// life == drainBit is quiescence, the workers' exit condition.
const (
	drainBit    = uint64(1) << 63
	pendingMask = drainBit - 1
)

// paddedCount is an atomic counter alone on its false-sharing range, so
// the per-worker load estimates don't ping-pong a shared line.
type paddedCount struct {
	v atomic.Int64
	_ [dcas.FalseSharingRange - 8]byte
}

// Scheduler is a work-stealing executor.  Create with New; all methods
// are safe for concurrent use.
type Scheduler struct {
	cfg      config
	workers  []*Worker
	injector deque.Deque[Task]
	sizes    []paddedCount // sizes[i] ≈ len(worker i's deque), for victim selection
	injSize  atomic.Int64  // ≈ len(injector)
	_        dcas.CacheLinePad
	//dequevet:contended written by Submit, credit-less Spawns and credit flushes; padded off the lines every Spawn reads
	//dequevet:packed pending:63 drain:1
	life atomic.Uint64
	_    dcas.CacheLinePad
	//dequevet:contended the block every Spawn reads: the idle stack head, sink, lat and tracing
	idle     idleStack
	sink     *telemetry.SchedSink
	lat      bool // sink non-nil with latency enabled: stamp lifecycles
	tracing  bool // WithTracing: emit runtime/trace tasks and regions
	unreg    func()
	wg       sync.WaitGroup
	done     chan struct{} // closed when every worker has exited
	stopping sync.Once
}

// New builds a scheduler and starts its workers.  The workers park
// immediately (there is no work yet) and cost nothing until the first
// Submit.  Call Shutdown to stop them.
func New(opts ...Option) *Scheduler {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		panic("sched: worker count must be ≥ 1")
	}
	if cfg.stealBatch < 1 {
		cfg.stealBatch = 1
	}
	if cfg.mkDeque == nil {
		WithArrayDeques()(&cfg)
	}
	if cfg.mkInjector == nil {
		cfg.mkInjector = func(capacity int) deque.Deque[Task] { return deque.NewArray[Task](capacity) }
	}
	s := &Scheduler{
		cfg:      cfg,
		injector: cfg.mkInjector(cfg.injectorCap),
		sizes:    make([]paddedCount, cfg.workers),
		done:     make(chan struct{}),
	}
	if cfg.telemetry {
		s.sink = telemetry.NewSchedSink(cfg.workers)
		if cfg.latency {
			s.sink.EnableLatency()
			s.lat = true
		}
		if cfg.telemetryName != "" {
			s.unreg = telemetry.RegisterSched(cfg.telemetryName, s.sink)
		}
	}
	s.tracing = cfg.tracing
	s.idle.init(cfg.workers)
	s.workers = make([]*Worker, cfg.workers)
	for i := range s.workers {
		s.workers[i] = newWorker(s, i, cfg.mkDeque(i))
	}
	s.wg.Add(cfg.workers)
	for _, w := range s.workers {
		go w.loop()
	}
	return s
}

// NumWorkers reports the worker count.
func (s *Scheduler) NumWorkers() int { return len(s.workers) }

// note / noteN record telemetry when enabled — the deque cores' nil-
// check discipline: disabled telemetry costs one branch.
func (s *Scheduler) note(worker int, c telemetry.SchedCounter) {
	if s.sink != nil {
		s.sink.Inc(worker, c)
	}
}

func (s *Scheduler) noteN(worker int, c telemetry.SchedCounter, n uint64) {
	if s.sink != nil {
		s.sink.Add(worker, c, n)
	}
}

// acquire joins the life word as one pending task; it fails once the
// drain bit is set.  This CAS is where an external submission's
// accept-or-refuse decision linearizes against Shutdown.
func (s *Scheduler) acquire() bool {
	for {
		old := s.life.Load()
		if old&drainBit != 0 {
			return false
		}
		if s.life.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// release retires n pending units: a rejected submission's acquire
// (n = 1), or a worker's banked credit.  The subtraction that lands the
// word on exactly drainBit is the moment of quiescence — it wakes every
// parked worker so they observe it and exit.
func (s *Scheduler) release(n uint64) {
	if s.life.Add(-n) == drainBit {
		s.wakeAll()
	}
}

// quiesced reports the exit condition: draining with nothing pending.
func (s *Scheduler) quiesced() bool { return s.life.Load() == drainBit }

// TrySubmit hands a task to the scheduler from outside; it returns
// ErrShutdown after Shutdown, or ErrSaturated when the bounded injector
// is full.  On success the task will run exactly once, on some worker.
func (s *Scheduler) TrySubmit(t Task) error {
	if t == nil {
		panic("sched: nil task")
	}
	if !s.acquire() {
		return ErrShutdown
	}
	t = s.stamp(t, telemetry.SchedSubmitRun)
	if err := s.injector.PushRight(t); err != nil {
		// Any push failure is backpressure: ErrFull from the bounded
		// array, or ErrMemoryBound from a memory-bounded injector
		// (WithInjector).  The release undoes acquire's pending count, so
		// a rejected submission leaves nothing behind for Shutdown to
		// drain.
		s.release(1)
		return ErrSaturated
	}
	// Publish the work (size increment), then look for a parked worker:
	// the mirror image of the parking protocol's publish-idle-then-check.
	s.injSize.Add(1) //dequevet:publish recheck=wakeOne the idle-stack check is the submitter's half of the Dekker handshake
	s.note(telemetry.SchedExternal, telemetry.SchedSubmits)
	s.wakeOne(telemetry.SchedExternal)
	return nil
}

// Submit is TrySubmit with blocking backpressure: a full injector makes
// it yield and retry until the task is accepted or the scheduler shuts
// down.
func (s *Scheduler) Submit(t Task) error {
	for {
		err := s.TrySubmit(t)
		if err != ErrSaturated { //nolint:errorlint — ErrSaturated is returned unwrapped
			return err
		}
		runtime.Gosched()
	}
}

// Shutdown stops accepting external submissions, drains every already-
// accepted task (and their transitive spawns), and waits for the
// workers to exit.  If ctx is cancelled first, Shutdown returns
// ctx.Err() but the drain continues in the background; Shutdown may be
// called again to resume waiting.  It is idempotent and safe to call
// concurrently.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.stopping.Do(func() {
		// Raise the drain bit, observing the pending count of the same
		// instant: if nothing was pending right then, no release will
		// ever run to announce quiescence, so announce it here.
		//
		// This stays a CAS loop instead of the one-line
		// `old := s.life.Or(drainBit)` on purpose: the module's floor
		// toolchain is go1.24.0, whose amd64 backend miscompiles the
		// VALUE-USING form of the atomic.Uint64.Or/And intrinsics
		// (golang.org/issue 71817, fixed in go1.24.1) — the returned old
		// value can be clobbered, here silently corrupting the
		// pending==0 quiescence test below.  The atomicvalue analyzer
		// now enforces this module-wide; when the floor toolchain
		// reaches go1.24.1, replace the loop with the Or form annotated
		// `//dequevet:atomicvalue-ok floor is go1.24.1` (the analyzer's
		// per-site allowlist) and delete this paragraph.
		old := s.life.Load()
		for !s.life.CompareAndSwap(old, old|drainBit) {
			old = s.life.Load()
		}
		if old&pendingMask == 0 {
			s.wakeAll()
		}
		go func() {
			s.wg.Wait()
			if s.unreg != nil {
				s.unreg()
			}
			close(s.done)
		}()
	})
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wakeOne unparks one idle worker, if any; from attributes the wake.
func (s *Scheduler) wakeOne(from int) {
	if id, ok := s.idle.pop(); ok {
		s.note(from, telemetry.SchedWakes)
		s.workers[id].wake <- struct{}{}
	}
}

// wakeAll unparks every idle worker (quiescence announcement).
func (s *Scheduler) wakeAll() {
	for {
		id, ok := s.idle.pop()
		if !ok {
			return
		}
		s.note(telemetry.SchedExternal, telemetry.SchedWakes)
		s.workers[id].wake <- struct{}{}
	}
}

// workAvailable is the parking recheck: any apparent work anywhere?
// The size estimates are conservative in the direction that matters —
// a task is pushed before its size increment is published, but the
// push-then-increment pair is ordered before the pusher's idle-stack
// check, so a parker that misses the increment is instead seen on the
// stack and woken (see the package comment's Dekker argument).
func (s *Scheduler) workAvailable() bool {
	if s.injSize.Load() > 0 {
		return true
	}
	for i := range s.sizes {
		if s.sizes[i].v.Load() > 0 {
			return true
		}
	}
	return false
}

// Stats returns the scheduler's telemetry snapshot; ok is false unless
// it was built with WithTelemetry or WithTelemetryName.
func (s *Scheduler) Stats() (Stats, bool) {
	if s.sink == nil {
		return Stats{}, false
	}
	sn := s.sink.Snapshot()
	st := Stats{
		Workers:  make([]WorkerCounts, len(sn.Workers)),
		External: workerCounts(sn.External),
		Total:    workerCounts(sn.Total),
	}
	for i, c := range sn.Workers {
		st.Workers[i] = workerCounts(c)
	}
	if l := sn.Latencies; l != nil {
		st.Latencies = &Latencies{
			SubmitRun: deque.HistogramStats(l[telemetry.SchedSubmitRun].Summary),
			StealRun:  deque.HistogramStats(l[telemetry.SchedStealRun].Summary),
			ParkWake:  deque.HistogramStats(l[telemetry.SchedParkWake].Summary),
		}
	}
	return st, true
}

func workerCounts(c telemetry.Counts) WorkerCounts {
	return WorkerCounts{
		Runs:       c[telemetry.SchedRuns],
		Spawns:     c[telemetry.SchedSpawns],
		Submits:    c[telemetry.SchedSubmits],
		Steals:     c[telemetry.SchedSteals],
		Stolen:     c[telemetry.SchedStolen],
		StealFails: c[telemetry.SchedStealFails],
		Parks:      c[telemetry.SchedParks],
		Wakes:      c[telemetry.SchedWakes],
	}
}

// WorkerCounts is one worker's counters (External: events raised
// outside any worker, i.e. submissions and their wakeups).
type WorkerCounts struct {
	Runs       uint64
	Spawns     uint64
	Submits    uint64
	Steals     uint64
	Stolen     uint64
	StealFails uint64
	Parks      uint64
	Wakes      uint64
}

// Latencies are the scheduler's task-lifecycle latency summaries
// (nanoseconds): how long tasks waited between submit/spawn and first
// run, between steal transfer and run, and how long workers slept
// between park and wake.
type Latencies struct {
	SubmitRun deque.HistogramStats
	StealRun  deque.HistogramStats
	ParkWake  deque.HistogramStats
}

// Stats is a point-in-time scheduler telemetry snapshot.
type Stats struct {
	Workers  []WorkerCounts
	External WorkerCounts
	Total    WorkerCounts
	// Latencies is present only for schedulers built with WithLatency.
	Latencies *Latencies
}
