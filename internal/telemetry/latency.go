package telemetry

// Latency recording for the deque Sink: optional per-end histograms of
// operation duration, recorded at the same completed-operation flush
// sites as the counters (the cores' note helpers, which sit on the
// return paths directly after each linearization point).
//
// Two histograms per end:
//
//   - op: the duration of every completed operation, entry to return —
//     the end-to-end latency a caller observes, including the DCAS
//     emulation and every retry.
//   - spin: the duration of completed operations that lost at least one
//     race (retries > 0).  Isolating the contended subpopulation is
//     what makes a retry storm legible as a latency number: the spin
//     histogram's quantiles are the tail the uncontended mass of op
//     would otherwise bury.
//
// The recording discipline extends the counter contract unchanged:
// disabled (no EnableLatency) the cores stamp nothing — tstart returns
// 0 and the flush sees start == 0, so the cost is the one branch the
// nil-check contract already pays; enabled, each operation pays two
// operation stamps (metrics.Stamp at entry, metrics.SinceStamp at the
// flush) plus one or two sharded histogram records.  Where the CPU has
// an invariant cycle counter a stamp is one counter read, ~22 ns on a
// 2-vCPU KVM guest; elsewhere it is metrics.Nanotime, 45–50 ns on the
// same guest (EXPERIMENTS.md STAMP).  The histograms see nanoseconds
// either way.  That enabled cost is real and documented (EXPERIMENTS.md
// LATOBS); it buys the p99s the offline bench harness cannot see in
// production.
//
// Each operation stamps its own entry.  Reusing the previous
// operation's end stamp would save one read, but it would time the
// caller's work between two operations as latency — in the scheduler,
// the task an owner runs between its push and its pop.

import (
	"runtime"

	"dcasdeque/internal/metrics"
)

// latBank is a Sink's latency histograms; nil means latency recording
// is disabled (the default).
type latBank struct {
	op   [NumEnds]*metrics.ShardedHistogram
	spin [NumEnds]*metrics.ShardedHistogram
}

// EnableLatency attaches per-end operation-latency and retry-spin
// histograms to the sink and returns it.  Call before the sink is
// shared with recording goroutines (the constructors do); enabling is
// not synchronized against concurrent Op calls.  Idempotent.  The first
// call in a process calibrates the operation stamp
// (metrics.CalibrateStamp, a few milliseconds), before any core can
// stamp with it.
func (s *Sink) EnableLatency() *Sink {
	metrics.CalibrateStamp()
	if s.lat == nil {
		lb := new(latBank)
		n := runtime.GOMAXPROCS(0)
		for e := range lb.op {
			lb.op[e] = metrics.NewShardedHistogram(n)
			lb.spin[e] = metrics.NewShardedHistogram(n)
		}
		s.lat = lb
	}
	return s
}

// LatencyEnabled reports whether EnableLatency was called; the cores
// read it once at construction to decide whether to stamp operations.
func (s *Sink) LatencyEnabled() bool { return s.lat != nil }

// OpTimed is Op plus the latency flush: start is the operation's
// metrics.Stamp entry stamp, or 0 when the core has latency
// disabled (then OpTimed is exactly Op).  Kept out of line for the same
// inlining-budget reason as Op: the cores' per-return-site helpers must
// stay one inlined nil check.
//
//go:noinline
func (s *Sink) OpTimed(end End, outcome Counter, retries uint64, start int64) {
	b := s.shard().end(end)
	b.c[outcome].Add(1)
	if retries != 0 {
		b.c[Retries].Add(retries)
	}
	if start != 0 && s.lat != nil {
		s.recordLatency(end, retries, start)
	}
}

// OpDCAS is OpTimed plus the operation's DCAS tally: attempts DCASes
// issued, failures of which failed, added to DCAS lane lane (DCASLane of
// the operating end's anchor).  A core that tallies its DCASes in
// registers flushes them here once per operation, at the same site as
// its outcome, instead of wrapping its provider with Instrument, which
// would hide the provider's concrete type and with it the core's inlined
// fast path.
//
//go:noinline
func (s *Sink) OpDCAS(end End, outcome Counter, retries uint64, start int64, lane, attempts, failures uint64) {
	b := s.shard().end(end)
	b.c[outcome].Add(1)
	if retries != 0 {
		b.c[Retries].Add(retries)
	}
	r := &s.dcas.lanes[lane]
	r.c[DCASAttempts].Add(attempts)
	if failures != 0 {
		r.c[DCASFailures].Add(failures)
	}
	if start != 0 && s.lat != nil {
		s.recordLatency(end, retries, start)
	}
}

// Latency records an operation's duration without moving counters: the
// flush for paths that count through Add (the Chase–Lev batch steal,
// whose k pops are one commit).  start == 0 (latency disabled at the
// core) and a nil bank are both no-ops.
//
//go:noinline
func (s *Sink) Latency(end End, retries uint64, start int64) {
	if start != 0 && s.lat != nil {
		s.recordLatency(end, retries, start)
	}
}

func (s *Sink) recordLatency(end End, retries uint64, start int64) {
	el := metrics.SinceStamp(start)
	s.lat.op[end].Record(el)
	if retries != 0 {
		s.lat.spin[end].Record(el)
	}
}

// LatencySnapshot is a point-in-time read of a sink's latency
// histograms, indexed by End; present in Snapshot only when
// EnableLatency was called.
type LatencySnapshot struct {
	// Op is each end's duration distribution of every completed
	// operation.
	Op [NumEnds]metrics.HistogramSnapshot
	// Spin is each end's duration distribution of the contended
	// subpopulation: completed operations that retried at least once.
	Spin [NumEnds]metrics.HistogramSnapshot
}

// latencySnapshot merges the bank; nil when disabled.
func (s *Sink) latencySnapshot() *LatencySnapshot {
	if s.lat == nil {
		return nil
	}
	l := new(LatencySnapshot)
	for e := range l.Op {
		l.Op[e] = s.lat.op[e].Snapshot()
		l.Spin[e] = s.lat.spin[e].Snapshot()
	}
	return l
}
