package telemetry

// Serving telemetry: per-tenant admission counters and request-stage
// latency histograms for the serve package (the network-facing job
// service).  The sharding story is the deque Sink's, not the
// scheduler's: any HTTP handler goroutine may record for any tenant at
// any time, so the per-tenant banks are padded against each other
// (tenants are the attribution axis, not the writer axis) and the stage
// histograms are stack-address-sharded.
//
// The admission counters are the service's conservation law, the
// bounded-admission analogue of the deques' outcome classes: every
// received request is exactly one of accepted / rejected-busy (429) /
// rejected-drain (503), and every accepted request is exactly one of
// completed / abandoned.  The serve stress harness asserts both sums
// after every randomized run.

import (
	"sync/atomic"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
)

// ServeCounter enumerates the per-tenant admission counters.
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
	// NumServeCounters sizes per-tenant counter banks.
	NumServeCounters
)

// String returns the counter's exporter name.
func (c ServeCounter) String() string {
	switch c {
	case ServeReceived:
		return "received"
	case ServeAccepted:
		return "accepted"
	case ServeRejectedBusy:
		return "rejected_busy"
	case ServeRejectedDrain:
		return "rejected_drain"
	case ServeCompleted:
		return "completed"
	case ServeAbandoned:
		return "abandoned"
	default:
		return "unknown"
	}
}

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

// String returns the stage's exporter name.
func (s ServeStage) String() string {
	switch s {
	case StageIngest:
		return "ingest"
	case StageSubmit:
		return "submit"
	case StageRun:
		return "run"
	case StageRespond:
		return "respond"
	default:
		return "unknown"
	}
}

// serveBlock is one tenant's counter bank, padded to a full
// false-sharing range so two tenants' admission traffic never shares a
// line (the schedBlock discipline applied to the tenant axis).
type serveBlock struct {
	c [NumServeCounters]atomic.Uint64
	_ [dcas.FalseSharingRange - 8*int(NumServeCounters)]byte
}

// ServeSink accumulates one server's telemetry: a padded counter bank
// per tenant plus one stack-address-sharded histogram per request
// stage.  All methods are safe for concurrent use by any goroutine.
type ServeSink struct {
	tenants []string
	banks   []serveBlock
	stages  [NumServeStages]*metrics.ShardedHistogram
}

// NewServeSink returns an empty sink for the given tenant names (their
// index is the Inc tenant argument).  Stage histograms are always
// attached: requests are microsecond-scale events, so the recording
// cost that makes deque latency opt-in is noise here.
func NewServeSink(tenants []string) *ServeSink {
	s := &ServeSink{
		tenants: append([]string(nil), tenants...),
		banks:   make([]serveBlock, len(tenants)),
	}
	for i := range s.stages {
		s.stages[i] = metrics.NewShardedHistogram(8)
	}
	return s
}

// Tenants returns the tenant names, in bank order.
func (s *ServeSink) Tenants() []string { return s.tenants }

// Inc adds 1 to one counter of one tenant's bank.
func (s *ServeSink) Inc(tenant int, c ServeCounter) {
	s.banks[tenant].c[c].Add(1)
}

// Get reads one counter of one tenant's bank.
func (s *ServeSink) Get(tenant int, c ServeCounter) uint64 {
	return s.banks[tenant].c[c].Load()
}

// Stage records one stage interval (nanoseconds).
func (s *ServeSink) Stage(st ServeStage, ns uint64) {
	s.stages[st].Record(ns)
}

// ServeCounts is one tenant's admission totals, in plain values.
type ServeCounts struct {
	Received      uint64 `json:"received"`
	Accepted      uint64 `json:"accepted"`
	RejectedBusy  uint64 `json:"rejected_busy"`
	RejectedDrain uint64 `json:"rejected_drain"`
	Completed     uint64 `json:"completed"`
	Abandoned     uint64 `json:"abandoned"`
}

// get returns the counter's value by enum, for table-driven exporters.
func (o ServeCounts) get(c ServeCounter) uint64 {
	switch c {
	case ServeReceived:
		return o.Received
	case ServeAccepted:
		return o.Accepted
	case ServeRejectedBusy:
		return o.RejectedBusy
	case ServeRejectedDrain:
		return o.RejectedDrain
	case ServeCompleted:
		return o.Completed
	case ServeAbandoned:
		return o.Abandoned
	default:
		return 0
	}
}

func (o *ServeCounts) add(b *serveBlock) {
	o.Received += b.c[ServeReceived].Load()
	o.Accepted += b.c[ServeAccepted].Load()
	o.RejectedBusy += b.c[ServeRejectedBusy].Load()
	o.RejectedDrain += b.c[ServeRejectedDrain].Load()
	o.Completed += b.c[ServeCompleted].Load()
	o.Abandoned += b.c[ServeAbandoned].Load()
}

// ServeTenantCounts pairs a tenant name with its totals for snapshots.
type ServeTenantCounts struct {
	Tenant string `json:"tenant"`
	ServeCounts
}

// ServeStageSnapshot summarizes the four stage histograms.
type ServeStageSnapshot struct {
	Ingest  metrics.HistogramSnapshot `json:"ingest"`
	Submit  metrics.HistogramSnapshot `json:"submit"`
	Run     metrics.HistogramSnapshot `json:"run"`
	Respond metrics.HistogramSnapshot `json:"respond"`
}

// Get selects one stage histogram by enum, for table-driven exporters.
func (s *ServeStageSnapshot) Get(st ServeStage) metrics.HistogramSnapshot {
	switch st {
	case StageIngest:
		return s.Ingest
	case StageSubmit:
		return s.Submit
	case StageRun:
		return s.Run
	case StageRespond:
		return s.Respond
	default:
		return metrics.HistogramSnapshot{}
	}
}

// ServeSnapshot is a point-in-time read of a serve sink: per-tenant
// banks, their sum, and the stage histograms.  The consistency contract
// is the Sink's: eventually exact, monotone per counter.
type ServeSnapshot struct {
	Tenants []ServeTenantCounts `json:"tenants"`
	Total   ServeCounts         `json:"total"`
	Stages  ServeStageSnapshot  `json:"stages"`
}

// Snapshot reads every bank and stage histogram.
func (s *ServeSink) Snapshot() ServeSnapshot {
	sn := ServeSnapshot{Tenants: make([]ServeTenantCounts, len(s.banks))}
	for i := range s.banks {
		sn.Tenants[i].Tenant = s.tenants[i]
		sn.Tenants[i].add(&s.banks[i])
		sn.Total.add(&s.banks[i])
	}
	sn.Stages = ServeStageSnapshot{
		Ingest:  s.stages[StageIngest].Snapshot(),
		Submit:  s.stages[StageSubmit].Snapshot(),
		Run:     s.stages[StageRun].Snapshot(),
		Respond: s.stages[StageRespond].Snapshot(),
	}
	return sn
}

// RegisterServe exposes a server's telemetry under the given name,
// alongside the deques and schedulers, with the same replace/unregister
// semantics as Register.
func RegisterServe(name string, sink *ServeSink) func() {
	return register(name, &entry{serve: sink})
}
