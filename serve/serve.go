// Package serve is the network-facing job service built on the
// work-stealing scheduler: an HTTP ingestion layer where requests land
// in per-tenant bounded queues, flow through a weighted round-robin
// pump into sched, execute on whichever deque backend the scheduler was
// built over, and stream their results back to the waiting client.
//
// The load-bearing idea is bounded admission.  Every queue between the
// client and a worker is bounded — the per-tenant ingestion queues, the
// scheduler's injector, the worker deques — so overload cannot
// accumulate as unbounded latency anywhere inside the process.  It is
// instead converted, at the outermost edge, into an explicit
// client-visible decision: a full tenant queue answers 429 Too Many
// Requests with a Retry-After hint, and a draining server answers 503.
// The per-tenant admission counters make the policy auditable as a
// conservation law: received == accepted + rejected-busy +
// rejected-drain, and accepted == completed + abandoned, exactly.
//
// Admission linearizes against shutdown on a single ingress word, the
// sched life-word pattern one layer up: the top bit is the drain flag
// and the rest counts requests admitted into tenant queues but not yet
// handed to the scheduler.  A handler joins by CAS (failing once the
// drain bit is set → 503); the pump retires a request's count only
// after the scheduler has accepted it.  Shutdown therefore has a
// well-founded drain order: raise the drain bit (no new admissions),
// wait for the ingress word to hit exactly drainBit (every admitted
// request has reached sched), then drain the scheduler itself
// (Shutdown runs every accepted task exactly once).  A client that was
// accepted always gets a response: its result, or — if the caller's
// drain deadline expires first — a 503 while the job still completes
// on the background drain.
//
// Each request's life is timed in four stages (ingest → submit → run →
// respond) through sharded histograms, and the admission counters are
// registered with the process-wide exporter, so /metrics (Prometheus
// text) and dequetop see the service with zero extra wiring.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"dcasdeque/deque"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/telemetry"
	"dcasdeque/sched"
)

// TenantConfig describes one tenant's admission contract: its share of
// the pump's round-robin credits and the depth of its bounded
// ingestion queue (the overload buffer that, once full, becomes 429s).
type TenantConfig struct {
	Name string
	// Weight is the tenant's credits per round-robin cycle (≥ 1).  With
	// both tenants backlogged, a weight-3 tenant's jobs reach the
	// scheduler 3× as often as a weight-1 tenant's.
	Weight int
	// QueueCap bounds the tenant's ingestion queue (0 → the server
	// default, WithQueueCapacity).
	QueueCap int
}

// Option configures New.
type Option func(*config)

type config struct {
	name      string
	tenants   []TenantConfig
	schedOpts []sched.Option
	queueCap  int
}

func defaultConfig() config {
	return config{
		tenants:  []TenantConfig{{Name: "default", Weight: 1}},
		queueCap: 1024,
	}
}

// WithTenants declares the tenant set (default: one tenant named
// "default" with weight 1).  Requests name their tenant in the
// X-Tenant header; unknown or empty names fall through to the first
// configured tenant, so the first entry is the catch-all.
func WithTenants(ts ...TenantConfig) Option {
	return func(c *config) {
		if len(ts) > 0 {
			c.tenants = ts
		}
	}
}

// WithQueueCapacity sets the default per-tenant ingestion queue depth
// (default 1024), used by tenants whose TenantConfig.QueueCap is 0.
func WithQueueCapacity(n int) Option {
	return func(c *config) { c.queueCap = n }
}

// WithSchedOptions forwards options to the scheduler the server builds
// (backend selection, worker count, injector capacity, telemetry...).
// The server's default scheduler is Chase–Lev-backed; pass
// sched.WithArrayDeques() etc. to race other backends under identical
// serving load.
func WithSchedOptions(opts ...sched.Option) Option {
	return func(c *config) { c.schedOpts = append(c.schedOpts, opts...) }
}

// WithName registers the server's admission counters and stage
// histograms under the given name with the process-wide exporter (the
// server="name" series at /metrics).
func WithName(name string) Option {
	return func(c *config) { c.name = name }
}

// ingress-word layout: sched's life word applied to admission.  The
// top bit is the drain flag; the rest counts requests admitted into a
// tenant queue whose hand-off to the scheduler has not completed.
// drainBit alone is the pump's exit condition: draining, and every
// admitted request has reached sched.
const (
	drainBit   = uint64(1) << 63
	queuedMask = drainBit - 1
)

// Server is the job service.  Create with New, mount Mux (or the
// Server itself as the /jobs handler) on an http.Server, and stop with
// Shutdown.  All methods are safe for concurrent use.
type Server struct {
	cfg     config
	sched   *sched.Scheduler
	tenants []*tenant
	byName  map[string]*tenant
	sink    *telemetry.ServeSink
	unreg   func()
	//dequevet:packed queued:63 drain:1
	ingress  atomic.Uint64
	notify   chan struct{} // cap 1: handlers ping the pump after a push
	drainCh  chan struct{} // closed when Shutdown raises the drain bit
	killed   chan struct{} // closed when the drain deadline expires: waiters answer 503
	pumpDone chan struct{}
	done     chan struct{} // closed when the scheduler has fully drained
	stopping sync.Once
	killing  sync.Once
}

// New builds a server and starts its scheduler and pump.  The pump
// parks immediately; an idle server costs nothing until the first
// request.  Call Shutdown to stop it.
func New(opts ...Option) *Server {
	s := newServer(opts...)
	go s.pump()
	return s
}

// newServer builds a server and starts its scheduler, but not its pump:
// until the caller starts one, nothing else reads the tenant queues.
func newServer(opts ...Option) *Server {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	names := make([]string, len(cfg.tenants))
	for i, tc := range cfg.tenants {
		if tc.Name == "" {
			panic("serve: tenant name must be non-empty")
		}
		if tc.Weight < 1 {
			panic("serve: tenant weight must be ≥ 1")
		}
		names[i] = tc.Name
	}
	s := &Server{
		cfg:      cfg,
		sched:    sched.New(append([]sched.Option{sched.WithChaseLev()}, cfg.schedOpts...)...),
		sink:     telemetry.NewServeSink(names),
		notify:   make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
		killed:   make(chan struct{}),
		pumpDone: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.byName = make(map[string]*tenant, len(cfg.tenants))
	for i, tc := range cfg.tenants {
		cap := tc.QueueCap
		if cap <= 0 {
			cap = cfg.queueCap
		}
		t := &tenant{
			idx:    i,
			name:   tc.Name,
			weight: tc.Weight,
			queue:  deque.NewArray[*pending](cap),
		}
		s.tenants = append(s.tenants, t)
		s.byName[tc.Name] = t
	}
	if cfg.name != "" {
		s.unreg = telemetry.RegisterServe(cfg.name, s.sink)
	}
	return s
}

// Scheduler returns the underlying scheduler (for its Stats; do not
// shut it down directly — Server.Shutdown owns the drain order).
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// tenantFor resolves the X-Tenant header; unknown or empty names land
// on the first configured tenant (the catch-all).
func (s *Server) tenantFor(name string) *tenant {
	if t, ok := s.byName[name]; ok {
		return t
	}
	return s.tenants[0]
}

// draining reports whether Shutdown has raised the drain bit.
func (s *Server) draining() bool { return s.ingress.Load()&drainBit != 0 }

// admit joins the ingress word as one queued request; it fails once
// the drain bit is set.  This CAS is where a request's accept-or-503
// decision linearizes against Shutdown — the sched acquire pattern at
// the admission layer.
func (s *Server) admit() bool {
	for {
		old := s.ingress.Load()
		if old&drainBit != 0 {
			return false
		}
		if s.ingress.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// unadmit undoes admit for a request whose tenant-queue push failed —
// a rejected request leaves nothing behind for the pump to drain.
func (s *Server) unadmit() { s.ingress.Add(^uint64(0)) }

// Shutdown stops admitting requests (new submissions get 503), hands
// every already-admitted request to the scheduler, and drains the
// scheduler — every accepted job runs exactly once and every waiting
// client is answered.  If ctx expires first, Shutdown releases the
// still-waiting clients with 503 (counted as abandoned) and returns
// ctx.Err() while the job drain continues in the background; it may be
// called again to resume waiting.  Idempotent and safe for concurrent
// use.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopping.Do(func() {
		// Raise the drain bit.  A CAS loop, not ingress.Or: the module's
		// floor toolchain miscompiles value-using atomic Or (see the
		// identical loop in sched.Shutdown and the atomicvalue analyzer).
		old := s.ingress.Load()
		for !s.ingress.CompareAndSwap(old, old|drainBit) {
			old = s.ingress.Load()
		}
		close(s.drainCh)
		go func() {
			<-s.pumpDone
			// Every admitted request has reached the scheduler; drain it
			// with no deadline — the caller-facing deadline is handled
			// below, and the background drain guarantees the jobs run.
			_ = s.sched.Shutdown(context.Background())
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
		s.killing.Do(func() { close(s.killed) })
		return ctx.Err()
	}
}

// pump is the fairness engine: one goroutine doing weighted round-robin
// over the tenant queues into the scheduler.  Blocking sched.Submit is
// the backpressure coupling — a saturated scheduler stalls the pump,
// the tenant queues fill, and the handlers convert the overload into
// 429s at the edge.
func (s *Server) pump() {
	defer close(s.pumpDone)
	for {
		if s.cycle(s.submitOne) {
			continue
		}
		if s.ingress.Load() == drainBit {
			return // draining and every admitted request has reached sched
		}
		if s.draining() {
			// Admitted requests exist (ingress > drainBit) but their pushes
			// haven't landed in a queue yet; yield until they appear.
			runtime.Gosched()
			continue
		}
		select {
		case <-s.notify:
		case <-s.drainCh:
		}
	}
}

// cycle runs one weighted round-robin pass: tenant i gets weight_i
// pops this cycle, each handed to submit in queue (FIFO) order.  It
// reports whether any request moved.  Factored over submit so the
// fairness schedule is unit-testable without a scheduler.
func (s *Server) cycle(submit func(*pending)) bool {
	moved := false
	for _, t := range s.tenants {
		for c := 0; c < t.weight; c++ {
			p, err := t.queue.PopLeft()
			if err != nil {
				break // tenant idle this cycle; its credits don't carry over
			}
			submit(p)
			moved = true
		}
	}
	return moved
}

// submitOne hands one request to the scheduler and retires its ingress
// count.  Submit blocks on a saturated injector (the pump is the one
// caller that wants blocking backpressure) and only fails once the
// scheduler is shut down — which the drain order prevents for admitted
// requests, so the error path is defensive: the waiter is released
// rather than stranded.
func (s *Server) submitOne(p *pending) {
	p.subNs = metrics.Nanotime()
	if err := s.sched.Submit(s.task(p)); err != nil {
		p.done <- result{err: err}
	} else {
		s.sink.Stage(telemetry.StageSubmit, uint64(p.subNs-p.enqNs))
	}
	s.ingress.Add(^uint64(0))
}

// task wraps a pending request as a scheduler task: execute the job,
// stamp the run interval, deliver the result.  The done channel has
// capacity 1 and exactly one sender, so delivery never blocks a worker
// even when the waiter has already been released by a drain deadline.
func (s *Server) task(p *pending) sched.Task {
	return func(w *sched.Worker) {
		start := metrics.Nanotime()
		value, data := p.job.execute()
		end := metrics.Nanotime()
		p.done <- result{
			value:  value,
			data:   data,
			worker: w.ID(),
			runNs:  end - start,
			doneNs: end,
		}
	}
}

// Mux returns the server's full surface on one mux: the job API
// (POST /jobs, GET /healthz) plus the shared exposition endpoints
// (/metrics, /debug/pprof) from ExpositionMux.
func (s *Server) Mux() *http.ServeMux {
	mux := ExpositionMux()
	mux.Handle("/jobs", s)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// Counts are one tenant's (or the whole server's) admission totals.
// Received == Accepted + RejectedBusy + RejectedDrain and Accepted ==
// Completed + Abandoned, exactly, after quiescence.
type Counts struct {
	Received      uint64 `json:"received"`
	Accepted      uint64 `json:"accepted"`
	RejectedBusy  uint64 `json:"rejected_busy"`
	RejectedDrain uint64 `json:"rejected_drain"`
	Completed     uint64 `json:"completed"`
	Abandoned     uint64 `json:"abandoned"`
}

// TenantStats pair a tenant with its admission totals.
type TenantStats struct {
	Name string `json:"name"`
	Counts
}

// StageStats summarize the four request-stage latency histograms
// (nanoseconds).
type StageStats struct {
	Ingest  deque.HistogramStats `json:"ingest"`
	Submit  deque.HistogramStats `json:"submit"`
	Run     deque.HistogramStats `json:"run"`
	Respond deque.HistogramStats `json:"respond"`
}

// Stats is a point-in-time snapshot of the server's telemetry.
type Stats struct {
	Tenants []TenantStats `json:"tenants"`
	Total   Counts        `json:"total"`
	Stages  StageStats    `json:"stages"`
}

// Stats snapshots the per-tenant admission counters and stage
// latencies.
func (s *Server) Stats() Stats {
	sn := s.sink.Snapshot()
	st := Stats{Total: counts(sn.Total)}
	for i, c := range sn.Tenants {
		st.Tenants = append(st.Tenants, TenantStats{Name: sn.Names[i], Counts: counts(c)})
	}
	st.Stages = StageStats{
		Ingest:  deque.HistogramStats(sn.Stages[telemetry.StageIngest].Summary),
		Submit:  deque.HistogramStats(sn.Stages[telemetry.StageSubmit].Summary),
		Run:     deque.HistogramStats(sn.Stages[telemetry.StageRun].Summary),
		Respond: deque.HistogramStats(sn.Stages[telemetry.StageRespond].Summary),
	}
	return st
}

func counts(c telemetry.Counts) Counts {
	return Counts{
		Received:      c[telemetry.ServeReceived],
		Accepted:      c[telemetry.ServeAccepted],
		RejectedBusy:  c[telemetry.ServeRejectedBusy],
		RejectedDrain: c[telemetry.ServeRejectedDrain],
		Completed:     c[telemetry.ServeCompleted],
		Abandoned:     c[telemetry.ServeAbandoned],
	}
}

// Conserved checks the admission conservation law on a quiescent
// snapshot and returns false with the first violated tenant's name if
// it fails anywhere (empty name = the total).
func (st Stats) Conserved() (bool, string) {
	check := func(c Counts) bool {
		return c.Received == c.Accepted+c.RejectedBusy+c.RejectedDrain &&
			c.Accepted == c.Completed+c.Abandoned
	}
	for _, tc := range st.Tenants {
		if !check(tc.Counts) {
			return false, tc.Name
		}
	}
	if !check(st.Total) {
		return false, ""
	}
	return true, ""
}
