package deque

import (
	"net/http"

	"dcasdeque/internal/telemetry"
)

// WithTelemetry enables per-end operation counters and DCAS contention
// counters for the deque, readable through its Stats method.  Disabled
// (the default) the hot path pays one nil check per operation; enabled,
// recording creates no new contention between the two ends.  Operation
// counters are sharded and padded per end.  Each DCAS adds one attempt
// (and, when it fails, one failure) to one of four padded lanes, chosen
// by the DCAS's first location — the operating end's anchor word — so
// the two ends count into lanes of their own; Stats sums the lanes.
// The array deque tallies its DCASes per operation and flushes them
// with the operation's other counters; the list deques count through a
// wrapper around their provider.
func WithTelemetry() Option {
	return func(c *config) { c.telemetry = true }
}

// WithTelemetryName enables telemetry (as WithTelemetry) and additionally
// registers the deque's counters and memory ledgers under name with the
// process-wide exporter, PrometheusHandler, as the deque="name" series.
// Registering a second deque under the same name replaces the first.
func WithTelemetryName(name string) Option {
	return func(c *config) {
		c.telemetry = true
		c.telemetryName = name
	}
}

// WithLatency enables operation-latency histograms on top of the
// counters (implying WithTelemetry): each completed operation's
// duration — entry to the return following its linearization point — is
// recorded into a per-end sharded histogram, and the durations of
// contended operations (those that retried) additionally into a
// separate spin histogram, both readable through Stats().Latency and
// /metrics.  The enabled cost is two operation stamps (cycle-counter
// reads where the CPU's counter is invariant, monotonic clock reads
// elsewhere) plus one or two sharded histogram records per operation
// (see EXPERIMENTS.md STAMP and LATOBS for the measured overhead);
// disabled, the deque never reads a clock.
func WithLatency() Option {
	return func(c *config) {
		c.telemetry = true
		c.latency = true
	}
}

// EndStats are one end's operation counters.  Pushes/Pops count
// operations that returned normally; FullHits/EmptyHits count operations
// that observed the boundary, so the end's completed-operation total is
// the sum of all four.  Retries counts operation attempts that lost a
// race and looped.
type EndStats struct {
	Pushes    uint64 `json:"pushes"`
	Pops      uint64 `json:"pops"`
	FullHits  uint64 `json:"full_hits"`
	EmptyHits uint64 `json:"empty_hits"`
	Retries   uint64 `json:"retries"`
	// LogicalDeletes and PhysicalDeletes expose the list deques' two-phase
	// deletion protocol (a pop marks; a later pass splices).  Zero for the
	// array and mutex deques.
	LogicalDeletes  uint64 `json:"logical_deletes"`
	PhysicalDeletes uint64 `json:"physical_deletes"`
	// Grows counts the Chase–Lev deque's circular-array doublings
	// (attributed to the owner's end).  Zero for the fixed-capacity deques.
	Grows uint64 `json:"grows"`
}

// RefStats are the LFRC reference-count transfer totals.  Zero unless the
// deque was built with WithLFRC.
type RefStats struct {
	Incs  uint64 `json:"incs"`
	Decs  uint64 `json:"decs"`
	Frees uint64 `json:"frees"`
}

// DCASStats are the deque's DCAS substrate counters: every double-word
// attempt the deque issued and how many failed.
type DCASStats struct {
	Attempts  uint64 `json:"attempts"`
	Failures  uint64 `json:"failures"`
	Successes uint64 `json:"successes"`
}

// HistogramStats summarize one latency histogram: observation count,
// total, extremes and quantiles, all in nanoseconds.  Quantiles are
// log-linear bucket upper bounds (≤12.5% relative error).  The scheduler
// and server Stats use the same type.
type HistogramStats struct {
	N    uint64 `json:"n"`
	Sum  uint64 `json:"sum"`
	Min  uint64 `json:"min"`
	Max  uint64 `json:"max"`
	P50  uint64 `json:"p50"`
	P90  uint64 `json:"p90"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`
}

// Mean reports the mean observation, or 0 when empty.
func (h HistogramStats) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// EndLatencyStats are one end's latency histograms: Op covers every
// completed operation; Spin covers the contended subpopulation
// (operations that retried at least once).
type EndLatencyStats struct {
	Op   HistogramStats `json:"op"`
	Spin HistogramStats `json:"spin"`
}

// LatencyStats are the deque's per-end latency summaries; present on
// Stats only when the deque was built with WithLatency.
type LatencyStats struct {
	Left  EndLatencyStats `json:"left"`
	Right EndLatencyStats `json:"right"`
}

// Stats is a point-in-time snapshot of a deque's telemetry.  Totals are
// sums over unsynchronized shard reads: exact after quiescence, monotone
// per counter, but a snapshot taken mid-operation may split an
// operation's counters (its Pushes increment visible before its Retries).
type Stats struct {
	Left  EndStats  `json:"left"`
	Right EndStats  `json:"right"`
	Ref   RefStats  `json:"ref"`
	DCAS  DCASStats `json:"dcas"`
	// Latency is present only for deques built with WithLatency.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// PrometheusHandler serves every deque, scheduler and server registered
// by name in the Prometheus text exposition format, the one way
// telemetry leaves a process: counters as *_total families, the
// WithLatency histograms as native `le`-bucketed histograms in seconds
// plus quantile gauges (min through max), and the memory ledgers as
// arena and ring-chain families.  Mount at /metrics for scraping and
// for cmd/dequetop.
func PrometheusHandler() http.Handler { return telemetry.PrometheusHandler() }

// instruments is the per-deque telemetry state the public wrappers carry
// when telemetry is enabled; nil means disabled.
type instruments struct {
	name       string
	sink       *telemetry.Sink
	unregister func()
}

// newInstruments builds the enabled-telemetry state: a counter sink,
// which also holds the DCAS lanes, with latency histograms attached when
// requested.  Exporter registration is deferred to bind, which the
// constructor calls once the deque exists, so the registered entry can
// include the deque's memory snapshotter.
func newInstruments(name string, latency bool) *instruments {
	sink := telemetry.NewSink()
	if latency {
		sink.EnableLatency()
	}
	return &instruments{name: name, sink: sink}
}

// bind completes construction: when the deque was named
// (WithTelemetryName), register its sink and memory snapshotter with
// the process-wide exporter.  nil-safe so constructors can call it
// unconditionally.
func (in *instruments) bind(mem func() telemetry.MemSnapshot) {
	if in == nil || in.name == "" {
		return
	}
	in.unregister = telemetry.Register(in.name, in.sink, mem)
}

// stats assembles the public snapshot.
func (in *instruments) stats() Stats {
	sn := in.sink.Snapshot()
	ref, dc := sn.Ref, sn.DCAS
	st := Stats{
		Left:  endStats(sn.Ends[telemetry.Left]),
		Right: endStats(sn.Ends[telemetry.Right]),
		Ref:   RefStats{Incs: ref[telemetry.RefIncs], Decs: ref[telemetry.RefDecs], Frees: ref[telemetry.RefFrees]},
		DCAS: DCASStats{
			Attempts:  dc[telemetry.DCASAttempts],
			Failures:  dc[telemetry.DCASFailures],
			Successes: dc[telemetry.DCASSuccesses],
		},
	}
	if l := sn.Latency; l != nil {
		st.Latency = &LatencyStats{
			Left:  EndLatencyStats{Op: HistogramStats(l.Op[telemetry.Left].Summary), Spin: HistogramStats(l.Spin[telemetry.Left].Summary)},
			Right: EndLatencyStats{Op: HistogramStats(l.Op[telemetry.Right].Summary), Spin: HistogramStats(l.Spin[telemetry.Right].Summary)},
		}
	}
	return st
}

func endStats(c telemetry.Counts) EndStats {
	return EndStats{
		Pushes:          c[telemetry.Pushes],
		Pops:            c[telemetry.Pops],
		FullHits:        c[telemetry.FullHits],
		EmptyHits:       c[telemetry.EmptyHits],
		Retries:         c[telemetry.Retries],
		LogicalDeletes:  c[telemetry.LogicalDeletes],
		PhysicalDeletes: c[telemetry.PhysicalDeletes],
		Grows:           c[telemetry.Grows],
	}
}

// close drops the exporter registration, if any.
func (in *instruments) close() {
	if in != nil && in.unregister != nil {
		in.unregister()
	}
}
