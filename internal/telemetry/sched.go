package telemetry

// Scheduler telemetry: per-worker counter rows for the sched package, in
// the same padded-row shape as the deque Sink.  The sharding story differs
// because the writer population differs: a deque's operations can come
// from any goroutine (hence the Sink's stack-address stripes), but a
// scheduler's hot events — task runs, steals, parks — are generated by
// exactly one worker goroutine each.  Giving every worker its own row
// makes the hot path a single uncontended atomic add and reads back per
// worker, which is the attribution the steal-policy experiments need
// (who stole, who starved, who parked).  Events raised outside any worker
// (external submissions, submit-side wakeups) land in one extra shared
// row.

import "dcasdeque/internal/metrics"

// SchedCounter enumerates the columns of a scheduler row.
type SchedCounter uint8

// The scheduler counters.
const (
	// SchedRuns counts tasks executed to completion by this worker.
	SchedRuns SchedCounter = iota
	// SchedSpawns counts tasks spawned (pushed to the worker's own
	// deque, or overflowed to the injector) by tasks running here.
	SchedSpawns
	// SchedSubmits counts externally submitted tasks accepted into the
	// injector (recorded in the external row).
	SchedSubmits
	// SchedSteals counts steal attempts that transferred ≥ 1 task.
	SchedSteals
	// SchedStolen counts tasks transferred by those steals (batched
	// stealing makes this ≥ SchedSteals).
	SchedStolen
	// SchedStealFails counts full steal rounds that found every victim
	// empty.
	SchedStealFails
	// SchedParks counts times the worker gave up spinning and parked.
	SchedParks
	// SchedWakes counts wakeups this worker (or the external row, for
	// submit-side wakes) issued to parked workers.
	SchedWakes
	// NumSchedCounters is the scheduler row's width.
	NumSchedCounters
)

// SchedCounterNames names the scheduler-row counters, indexed by
// SchedCounter.
var SchedCounterNames = []string{"runs", "spawns", "submits", "steals", "stolen", "steal_fails", "parks", "wakes"}

// SchedLatency enumerates the task-lifecycle latencies the scheduler
// records when latency is enabled: each is an interval between two
// scheduler events on one task's life, stamped at the earlier event and
// recorded by the worker observing the later one.
type SchedLatency uint8

// The lifecycle latencies.
const (
	// SchedSubmitRun is submit/spawn → first run: how long a task waited
	// in a deque or the injector before any worker picked it up — the
	// scheduling delay a caller of Submit observes.
	SchedSubmitRun SchedLatency = iota
	// SchedStealRun is steal-transfer → run: how long a stolen task sat
	// in the thief's keep-batch before executing (the migration cost the
	// steal-batch sizing trades against).
	SchedStealRun
	// SchedParkWake is park → wake: how long a worker slept before a
	// wakeup (or shutdown broadcast) released it.
	SchedParkWake
	// NumSchedLatencies sizes the latency bank.
	NumSchedLatencies
)

// SchedLatencyNames names the lifecycle latencies, indexed by
// SchedLatency.
var SchedLatencyNames = []string{"submit_run", "steal_run", "park_wake"}

// SchedExternal attributes an event to no worker: external submitters
// and their wakeups.
const SchedExternal = -1

// SchedSink accumulates one scheduler's telemetry.  Worker i must be
// the only goroutine recording under index i (single-writer rows);
// SchedExternal may be used concurrently by any number of goroutines.
// A nil *SchedSink is the disabled state and must be checked by the
// caller, exactly like the deque Sink.
type SchedSink struct {
	// rows holds one row per worker, then the external row.
	rows []row
	// lat holds one sharded histogram per lifecycle latency, striped by
	// worker index (single-writer lanes); nil unless EnableLatency was
	// called.
	lat [NumSchedLatencies]*metrics.ShardedHistogram
}

// NewSchedSink returns an empty sink for a scheduler with the given
// worker count.
func NewSchedSink(workers int) *SchedSink {
	return &SchedSink{rows: make([]row, workers+1)}
}

// row selects the row for a worker index (SchedExternal → the last).
func (s *SchedSink) row(worker int) *row {
	if worker < 0 {
		worker = len(s.rows) - 1
	}
	return &s.rows[worker]
}

// EnableLatency attaches the lifecycle-latency histograms and returns
// the sink.  Call before workers start recording; idempotent.
func (s *SchedSink) EnableLatency() *SchedSink {
	if s.lat[0] == nil {
		n := max(len(s.rows)-1, 1)
		for l := range s.lat {
			s.lat[l] = metrics.NewShardedHistogram(n)
		}
	}
	return s
}

// LatencyEnabled reports whether EnableLatency was called.
func (s *SchedSink) LatencyEnabled() bool { return s.lat[0] != nil }

// Latency records one lifecycle interval (nanoseconds) observed by the
// given worker (SchedExternal → lane 0).  No-op when latency is
// disabled, so callers holding a non-nil sink need not re-check.
//
//go:noinline
func (s *SchedSink) Latency(worker int, l SchedLatency, v uint64) {
	if s.lat[l] != nil {
		s.lat[l].RecordAt(worker, v)
	}
}

// Inc adds 1 to one counter of one worker's row.
//
//go:noinline
func (s *SchedSink) Inc(worker int, c SchedCounter) {
	s.row(worker).c[c].Add(1)
}

// Add adds n to one counter of one worker's row.
//
//go:noinline
func (s *SchedSink) Add(worker int, c SchedCounter, n uint64) {
	if n != 0 {
		s.row(worker).c[c].Add(n)
	}
}

// SchedSnapshot is a point-in-time read of a scheduler sink: one row
// per worker, the external row, and their sum, each indexed by
// SchedCounter.  The consistency contract is the Sink's: eventually
// exact, monotone per counter.
type SchedSnapshot struct {
	Workers  []Counts
	External Counts
	Total    Counts
	// Latencies carries the lifecycle histograms, indexed by
	// SchedLatency; nil unless the sink was built with EnableLatency.
	Latencies []metrics.HistogramSnapshot
}

// Snapshot reads every row.
func (s *SchedSink) Snapshot() SchedSnapshot {
	n := len(s.rows) - 1
	sn := SchedSnapshot{Workers: make([]Counts, n)}
	for i := range s.rows {
		c := s.rows[i].load()
		if i < n {
			sn.Workers[i] = c
		} else {
			sn.External = c
		}
		sn.Total.add(c)
	}
	if s.LatencyEnabled() {
		sn.Latencies = make([]metrics.HistogramSnapshot, NumSchedLatencies)
		for l, h := range s.lat {
			sn.Latencies[l] = h.Snapshot()
		}
	}
	return sn
}
