package telemetry

// Serving telemetry: per-tenant admission counters and request-stage
// latency histograms for the serve package (the network-facing job
// service).  The sharding story is the deque Sink's, not the
// scheduler's: any HTTP handler goroutine may record for any tenant at
// any time, so each tenant gets its own padded row (tenants are the
// attribution axis, not the writer axis) and the stage histograms are
// stack-address-sharded.
//
// The admission counters are the service's conservation law, the
// bounded-admission analogue of the deques' outcome classes: every
// received request is exactly one of accepted / rejected-busy (429) /
// rejected-drain (503), and every accepted request is exactly one of
// completed / abandoned.  The serve stress harness asserts both sums
// after every randomized run.

import "dcasdeque/internal/metrics"

// ServeCounter enumerates the columns of a tenant row.
type ServeCounter uint8

// The admission counters.  Received == Accepted + RejectedBusy +
// RejectedDrain, and Accepted == Completed + Abandoned, both exact after
// quiescence.
const (
	// ServeReceived counts requests that reached the job handler.
	ServeReceived ServeCounter = iota
	// ServeAccepted counts requests admitted into a tenant queue.
	ServeAccepted
	// ServeRejectedBusy counts requests refused with 429 because the
	// tenant's bounded queue was full (ErrSaturated backpressure made
	// client-visible).
	ServeRejectedBusy
	// ServeRejectedDrain counts requests refused with 503 because the
	// server was draining.
	ServeRejectedDrain
	// ServeCompleted counts accepted requests whose result was delivered
	// to the client.
	ServeCompleted
	// ServeAbandoned counts accepted requests whose client went away or
	// whose drain deadline expired before the result was delivered (the
	// job itself still runs exactly once on the scheduler).
	ServeAbandoned
	// NumServeCounters is the tenant row's width.
	NumServeCounters
)

// ServeCounterNames names the tenant-row counters, indexed by
// ServeCounter.
var ServeCounterNames = []string{"received", "accepted", "rejected_busy", "rejected_drain", "completed", "abandoned"}

// ServeStage enumerates the request-lifecycle stages the service times:
// a request's life is ingest → submit → run → respond, and each stage's
// interval lands in its own histogram so a dashboard can tell queueing
// delay from execution time from response delivery.
type ServeStage uint8

// The request stages.
const (
	// StageIngest is handler entry → admission into the tenant queue
	// (decode plus the admission decision).
	StageIngest ServeStage = iota
	// StageSubmit is tenant-queue admission → accepted by the scheduler
	// (the queue wait the weighted round-robin pump governs).
	StageSubmit
	// StageRun is task start → task end on a scheduler worker.
	StageRun
	// StageRespond is result ready → response written to the client.
	StageRespond
	// NumServeStages sizes the stage-histogram bank.
	NumServeStages
)

// ServeStageNames names the request stages, indexed by ServeStage.
var ServeStageNames = []string{"ingest", "submit", "run", "respond"}

// ServeSink accumulates one server's telemetry: a padded row per tenant
// plus one stack-address-sharded histogram per request stage.  All
// methods are safe for concurrent use by any goroutine.
type ServeSink struct {
	tenants []string
	rows    []row
	stages  [NumServeStages]*metrics.ShardedHistogram
}

// NewServeSink returns an empty sink for the given tenant names (their
// index is the Inc tenant argument).  Stage histograms are always
// attached: requests are microsecond-scale events, so the recording
// cost that makes deque latency opt-in is noise here.
func NewServeSink(tenants []string) *ServeSink {
	s := &ServeSink{
		tenants: append([]string(nil), tenants...),
		rows:    make([]row, len(tenants)),
	}
	for i := range s.stages {
		s.stages[i] = metrics.NewShardedHistogram(8)
	}
	return s
}

// Inc adds 1 to one counter of one tenant's row.
func (s *ServeSink) Inc(tenant int, c ServeCounter) {
	s.rows[tenant].c[c].Add(1)
}

// Stage records one stage interval (nanoseconds).
func (s *ServeSink) Stage(st ServeStage, ns uint64) {
	s.stages[st].Record(ns)
}

// ServeSnapshot is a point-in-time read of a serve sink: per-tenant
// rows, their sum, and the stage histograms.  The consistency contract
// is the Sink's: eventually exact, monotone per counter.
type ServeSnapshot struct {
	// Names holds the tenant names, in the order of Tenants.
	Names []string
	// Tenants holds each tenant's counters, indexed by ServeCounter.
	Tenants []Counts
	Total   Counts
	// Stages holds the stage histograms, indexed by ServeStage.
	Stages [NumServeStages]metrics.HistogramSnapshot
}

// Snapshot reads every row and stage histogram.
func (s *ServeSink) Snapshot() ServeSnapshot {
	sn := ServeSnapshot{Names: s.tenants, Tenants: make([]Counts, len(s.rows))}
	for i := range s.rows {
		sn.Tenants[i] = s.rows[i].load()
		sn.Total.add(sn.Tenants[i])
	}
	for st, h := range s.stages {
		sn.Stages[st] = h.Snapshot()
	}
	return sn
}

// RegisterServe exposes a server's telemetry under the given name,
// alongside the deques and schedulers, with the same replace/unregister
// semantics as Register.
func RegisterServe(name string, sink *ServeSink) func() {
	return register(name, &entry{serve: sink})
}
