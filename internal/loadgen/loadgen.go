// Package loadgen drives HTTP load against a serve.Server's /jobs
// endpoint, in either of the two canonical load models:
//
//   - closed loop: N clients, each issuing its next request the moment
//     the previous response lands.  Throughput self-limits to what the
//     server sustains; this measures capacity.
//   - open loop: requests fire on a fixed arrival schedule regardless
//     of outstanding responses.  Offered load is independent of server
//     speed; this is the model that exposes overload behaviour, because
//     a server slower than the schedule accumulates visible queueing
//     (or, for a bounded-admission server, visible 429s).
//
// Results separate the outcomes the serve package's admission contract
// distinguishes — 200 / 429 / 503 — and summarize end-to-end latency
// of completed requests through the repository's histogram substrate,
// so p50/p99/p999 under overload come out of the same quantile
// machinery the server itself exports.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/internal/metrics"
)

// Tenant is one slice of the traffic mix: requests carry Name in
// X-Tenant, and tenants receive load proportionally to Share.
type Tenant struct {
	Name  string `json:"name"`
	Share int    `json:"share"`
}

// Config describes one load run.
type Config struct {
	// URL is the job endpoint (e.g. http://127.0.0.1:8080/jobs).
	URL string
	// Tenants is the traffic mix; empty means no X-Tenant header.
	Tenants []Tenant
	// Kind, N, Data form the job body every request carries.
	Kind string
	N    int
	Data string
	// Mode is "closed" or "open".
	Mode string
	// Concurrency is the closed-loop client count (default 8).
	Concurrency int
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// MaxInFlight bounds open-loop outstanding requests; arrivals past
	// the bound are shed client-side and counted (default 4096).
	MaxInFlight int
	// Duration is how long to offer load (default 5s).
	Duration time.Duration
	// Timeout is the per-request timeout (default 30s).
	Timeout time.Duration
	// Verify checks fib results against a locally computed value and
	// counts mismatches — an end-to-end correctness probe riding the
	// load.
	Verify bool
}

// Result is one run's outcome tally and latency summary.
type Result struct {
	Mode     string  `json:"mode"`
	Offered  float64 `json:"offered_rps"`  // open loop: configured rate; closed: achieved
	Duration float64 `json:"duration_sec"` // wall clock actually spent

	Sent      uint64 `json:"sent"`
	OK        uint64 `json:"ok"`
	Busy      uint64 `json:"busy_429"`
	Drain     uint64 `json:"drain_503"`
	BadStatus uint64 `json:"bad_status"`
	NetErr    uint64 `json:"net_err"`
	Shed      uint64 `json:"shed"` // open loop: client-side over MaxInFlight
	Mismatch  uint64 `json:"mismatch"`

	Throughput float64 `json:"ok_rps"` // completed requests per second

	// Latency summarizes end-to-end request time of OK responses (ns).
	Latency LatencyStats `json:"latency"`
}

// LatencyStats are the quantiles a load run reports (nanoseconds).
type LatencyStats struct {
	N    uint64 `json:"n"`
	Min  uint64 `json:"min"`
	Max  uint64 `json:"max"`
	P50  uint64 `json:"p50"`
	P90  uint64 `json:"p90"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`
}

// counters is the shared tally the client goroutines write.
type counters struct {
	sent, ok, busy, drain, badStatus, netErr, shed, mismatch atomic.Uint64
}

type runner struct {
	cfg    Config
	client *http.Client
	body   []byte
	mix    []string // tenant name per request, cycled
	mixIdx atomic.Uint64
	want   uint64 // fib verification value
	lat    *metrics.ShardedHistogram
	c      counters
}

// Run offers load per cfg and blocks until the run completes (all
// in-flight requests resolved).
func Run(cfg Config) (Result, error) {
	if cfg.Mode != "open" && cfg.Mode != "closed" {
		return Result{}, fmt.Errorf("loadgen: mode must be open or closed, got %q", cfg.Mode)
	}
	// The open loop spaces arrivals a whole number of nanoseconds apart,
	// so a rate it can schedule is finite, positive and at most 1e9/s.
	// The negated comparison also rejects NaN.
	if cfg.Mode == "open" && !(cfg.Rate > 0 && time.Duration(float64(time.Second)/cfg.Rate) > 0) {
		return Result{}, fmt.Errorf("loadgen: open loop needs a rate in (0, 1e9] requests/s, got %v", cfg.Rate)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Kind == "" {
		cfg.Kind = "fib"
		if cfg.N == 0 {
			cfg.N = 30
		}
	}
	body, err := json.Marshal(map[string]any{"kind": cfg.Kind, "n": cfg.N, "data": cfg.Data})
	if err != nil {
		return Result{}, err
	}
	// The idle pool matches the in-flight bound (capped at 1024): a
	// smaller pool forces connection churn exactly when load is high,
	// which measures the dialer instead of the server.  IdleConnTimeout
	// shrinks the pool between runs so a multi-level sweep in one
	// process doesn't accumulate file descriptors.
	idle := cfg.MaxInFlight
	if idle > 1024 {
		idle = 1024
	}
	r := &runner{
		cfg: cfg,
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        idle,
				MaxIdleConnsPerHost: idle,
				IdleConnTimeout:     10 * time.Second,
			},
		},
		body: body,
		lat:  metrics.NewShardedHistogram(8),
	}
	for _, t := range cfg.Tenants {
		share := t.Share
		if share < 1 {
			share = 1
		}
		for i := 0; i < share; i++ {
			r.mix = append(r.mix, t.Name)
		}
	}
	if cfg.Verify && cfg.Kind == "fib" {
		var a, b uint64 = 0, 1
		for i := 0; i < cfg.N; i++ {
			a, b = b, a+b
		}
		r.want = a
	}

	start := time.Now()
	if cfg.Mode == "closed" {
		r.closedLoop()
	} else {
		r.openLoop()
	}
	elapsed := time.Since(start)
	r.client.CloseIdleConnections()

	res := Result{
		Mode:      cfg.Mode,
		Duration:  elapsed.Seconds(),
		Sent:      r.c.sent.Load(),
		OK:        r.c.ok.Load(),
		Busy:      r.c.busy.Load(),
		Drain:     r.c.drain.Load(),
		BadStatus: r.c.badStatus.Load(),
		NetErr:    r.c.netErr.Load(),
		Shed:      r.c.shed.Load(),
		Mismatch:  r.c.mismatch.Load(),
	}
	res.Throughput = float64(res.OK) / elapsed.Seconds()
	if cfg.Mode == "open" {
		res.Offered = cfg.Rate
	} else {
		res.Offered = float64(res.Sent) / elapsed.Seconds()
	}
	h := r.lat.Snapshot()
	res.Latency = LatencyStats{
		N: h.N, Min: h.Min, Max: h.Max,
		P50: h.P50, P90: h.P90, P99: h.P99, P999: h.P999,
	}
	return res, nil
}

// closedLoop: Concurrency clients back to back until the deadline.
func (r *runner) closedLoop() {
	deadline := time.Now().Add(r.cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.one()
			}
		}()
	}
	wg.Wait()
}

// openLoop: fixed arrival schedule at cfg.Rate, each request on its own
// goroutine, outstanding count bounded by MaxInFlight.  The schedule is
// absolute (start + i×interval), so slow responses do not slow
// arrivals — that independence is the point of the open model.
func (r *runner) openLoop() {
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	total := int(r.cfg.Duration / interval)
	sem := make(chan struct{}, r.cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		at := start.Add(time.Duration(i) * interval)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.one()
			}()
		default:
			r.c.shed.Add(1)
		}
	}
	wg.Wait()
}

// one issues a single request and classifies its outcome.
func (r *runner) one() {
	req, err := http.NewRequest(http.MethodPost, r.cfg.URL, bytes.NewReader(r.body))
	if err != nil {
		r.c.netErr.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if len(r.mix) > 0 {
		req.Header.Set("X-Tenant", r.mix[int(r.mixIdx.Add(1)-1)%len(r.mix)])
	}
	r.c.sent.Add(1)
	t0 := metrics.Nanotime()
	resp, err := r.client.Do(req)
	if err != nil {
		r.c.netErr.Add(1)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		r.lat.Record(uint64(metrics.Nanotime() - t0))
		r.c.ok.Add(1)
		if r.cfg.Verify && r.want != 0 {
			var jr struct {
				Result uint64 `json:"result"`
			}
			if json.Unmarshal(body, &jr) != nil || jr.Result != r.want {
				r.c.mismatch.Add(1)
			}
		}
	case http.StatusTooManyRequests:
		r.c.busy.Add(1)
	case http.StatusServiceUnavailable:
		r.c.drain.Add(1)
	default:
		r.c.badStatus.Add(1)
	}
}

// String renders the result as a human-readable block.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s loop: offered %.0f rps for %.1fs\n", r.Mode, r.Offered, r.Duration)
	fmt.Fprintf(&b, "  sent %d  ok %d (%.0f rps)  429 %d  503 %d  err %d  shed %d",
		r.Sent, r.OK, r.Throughput, r.Busy, r.Drain, r.BadStatus+r.NetErr, r.Shed)
	if r.Mismatch > 0 {
		fmt.Fprintf(&b, "  MISMATCH %d", r.Mismatch)
	}
	b.WriteByte('\n')
	if r.Latency.N > 0 {
		fmt.Fprintf(&b, "  latency p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
			time.Duration(r.Latency.P50), time.Duration(r.Latency.P90),
			time.Duration(r.Latency.P99), time.Duration(r.Latency.P999),
			time.Duration(r.Latency.Max))
	}
	return b.String()
}
