package sched

// Task-lifecycle observability: latency stamps and runtime/trace
// annotations.
//
// The scheduler's interesting latencies are intervals between events on
// different goroutines — a submission stamped by the submitter and
// first run by whichever worker picks it up; a steal transfer stamped
// by the thief and run after the keep-batch drains.  The stamp is
// carried by wrapping the Task in a closure at the earlier event; the
// later event (the wrapped task's invocation, always on a worker)
// records the interval into that worker's single-writer histogram lane.
// Wrapping costs one closure allocation per stamped task, paid only
// when WithLatency or WithTracing is on; disabled, stamp returns its
// argument untouched and the hot path allocates nothing.
//
// With WithTracing, the same wrap points emit runtime/trace user
// annotations: each submitted/spawned/stolen task becomes a trace.Task
// (named by its lifecycle kind) whose execution runs inside a
// "sched.run" region, and steal sweeps and parks become regions on the
// worker's goroutine — so `go tool trace` renders the scheduler's
// behaviour with no extra tooling.  Annotations are dropped at
// runtime when no trace is being collected (trace.IsEnabled), making
// WithTracing safe to leave on in binaries that only sometimes trace.

import (
	"context"
	"runtime/trace"

	"dcasdeque/internal/metrics"
	"dcasdeque/internal/telemetry"
)

// WithLatency enables task-lifecycle latency histograms on top of the
// counters (implying WithTelemetry): submit→first-run, steal→run and
// park→wake intervals, per worker, readable through Stats().Latencies
// and /metrics.  Costs one closure allocation plus two clock reads
// per submitted/spawned/stolen task.
func WithLatency() Option {
	return func(c *config) {
		c.telemetry = true
		c.latency = true
	}
}

// WithTracing emits runtime/trace user tasks and regions for the
// scheduler's lifecycle events: submitted, spawned and stolen tasks
// become trace tasks running inside "sched.run" regions; steal sweeps
// and parks become regions.  Annotations are suppressed while no trace
// is active, so the steady-state cost is one trace.IsEnabled check per
// wrap point.
func WithTracing() Option {
	return func(c *config) { c.tracing = true }
}

// stamp wraps t so that the interval from now (the submit, spawn or
// steal event) to the moment a worker first runs it is recorded under
// kind — and, when tracing, so the task's life shows up as a
// trace.Task.  Returns t untouched when neither feature is on.  A task
// may be stamped more than once (submitted, then stolen): the wraps
// nest, and each records its own interval.
func (s *Scheduler) stamp(t Task, kind telemetry.SchedLatency) Task {
	tracing := s.tracing && trace.IsEnabled()
	if !s.lat && !tracing {
		return t
	}
	var start int64
	if s.lat {
		start = metrics.Nanotime()
	}
	var ctx context.Context
	var tt *trace.Task
	if tracing {
		ctx, tt = trace.NewTask(context.Background(), "sched."+telemetry.SchedLatencyNames[kind])
	}
	return func(w *Worker) {
		if start != 0 {
			w.s.sink.Latency(w.id, kind, uint64(metrics.Nanotime()-start))
		}
		if tt != nil {
			trace.WithRegion(ctx, "sched.run", func() { t(w) })
			tt.End()
			return
		}
		t(w)
	}
}

// stampBatch stamps every task of a freshly stolen batch in place.
func (s *Scheduler) stampBatch(ts []Task, kind telemetry.SchedLatency) {
	if !s.lat && !(s.tracing && trace.IsEnabled()) {
		return
	}
	for i := range ts {
		ts[i] = s.stamp(ts[i], kind)
	}
}

// region opens a named trace region when tracing is on and a trace is
// being collected; nil otherwise (callers guard the End).
func (s *Scheduler) region(name string) *trace.Region {
	if s.tracing && trace.IsEnabled() {
		return trace.StartRegion(context.Background(), name)
	}
	return nil
}

// parkWait blocks for the worker's wake token, recording the park→wake
// interval (and a "sched.park" region) when enabled.  The stamp spans
// exactly the blocked receive: the idle-stack publish and Dekker
// recheck before it are awake work, not sleep.
func (w *Worker) parkWait() {
	s := w.s
	tracing := s.tracing && trace.IsEnabled()
	if !s.lat && !tracing {
		<-w.wake
		return
	}
	var start int64
	if s.lat {
		start = metrics.Nanotime()
	}
	var reg *trace.Region
	if tracing {
		reg = trace.StartRegion(context.Background(), "sched.park")
	}
	<-w.wake
	if reg != nil {
		reg.End()
	}
	if start != 0 {
		s.sink.Latency(w.id, telemetry.SchedParkWake, uint64(metrics.Nanotime()-start))
	}
}
