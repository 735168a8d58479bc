package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/sched"
	"dcasdeque/serve"
)

// serve-echo: an in-process job server on loopback HTTP, two tenants
// weighted 3:1, driven by keep-alive clients in a closed loop; an op is
// one echo request as its client sees it.
const (
	echoClients     = 2 // ≤ nproc: one connection each
	echoReqs        = 4096
	echoMinBytes    = 16
	echoMaxBytes    = 1024
	echoWarm        = 2000    // warm-up requests per client per set-up
	echoLatSlots    = 1 << 19 // per client
	echoSpanCap     = 1 << 18
	requestIDHeader = "X-Request-Id"
)

var echoTenants = []serve.TenantConfig{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}

// echoSystem is one built serve-echo system: the server on its
// listener and the clients, connected and warmed up.
type echoSystem struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*echoClient
	handler *spanLog // traced passes only: serve.handler spans
}

// echoTiming is the server-side timing one response reports.
type echoTiming struct {
	id             uint64
	queueNs, runNs int64
}

// echoClient is one closed-loop client with its own connection.
type echoClient struct {
	hc       *http.Client
	reqs     []echoReq
	next     int
	sent     uint64 // requests issued, warm-up included
	bad      uint64 // requests that failed or returned a wrong echo, warm-up included
	firstErr error
	lat      []uint32
	spans    *spanLog     // traced passes only: client.request spans
	id       uint64       // next request id; the top bits name the client
	times    []echoTiming // traced passes only
}

func buildEcho(cfg runConfig) (*echoSystem, error) {
	opts := []serve.Option{serve.WithTenants(echoTenants...)}
	if cfg.traced {
		opts = append(opts, serve.WithSchedOptions(sched.WithTelemetry()))
	}
	srv := serve.New(opts...)
	sys := &echoSystem{srv: srv, served: make(chan error, 1)}
	mux := http.NewServeMux()
	if cfg.traced {
		sys.handler = newSpanLog(echoSpanCap)
		mux.Handle("/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := now()
			srv.ServeHTTP(w, r)
			t1 := now()
			id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
			sys.handler.add(span{Trace: id, Name: "serve.handler", Parent: "client.request", Start: t0, End: t1})
		}))
	} else {
		mux.Handle("/jobs", srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	sys.hs = &http.Server{Handler: mux}
	go func() { sys.served <- sys.hs.Serve(ln) }()
	sys.url = "http://" + ln.Addr().String() + "/jobs"
	for c := range echoClients {
		sys.clients = append(sys.clients, &echoClient{
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}},
			reqs: echoRequests(cfg.seed, c, echoReqs, echoMinBytes, echoMaxBytes),
			id:   uint64(c+1) << 48,
		})
	}
	var wg sync.WaitGroup
	for _, c := range sys.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range echoWarm {
				c.do(sys.url, false)
			}
		}()
	}
	wg.Wait()
	return sys, nil
}

// do sends the client's next request and checks the echo. record
// keeps its latency, and in a traced pass its span and response.
func (c *echoClient) do(url string, record bool) {
	rq := &c.reqs[c.next]
	c.next = (c.next + 1) % len(c.reqs)
	c.sent++
	c.id++
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rq.body))
	if err != nil {
		c.failed(err)
		return
	}
	req.Header.Set("X-Tenant", rq.tenant)
	if c.spans != nil {
		req.Header.Set(requestIDHeader, strconv.FormatUint(c.id, 10))
	}
	t0 := now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed(err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := now()
	if err != nil {
		c.failed(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.failed(fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
		return
	}
	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		c.failed(fmt.Errorf("response body: %w", err))
		return
	}
	if jr.Data != rq.payload || jr.Result != uint64(len(rq.payload)) || jr.Tenant != rq.tenant {
		c.failed(fmt.Errorf("echo mismatch: sent %d bytes as %q, got %d bytes (result %d) as %q",
			len(rq.payload), rq.tenant, len(jr.Data), jr.Result, jr.Tenant))
		return
	}
	if !record {
		return
	}
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, nsSample(t1-t0))
	}
	if c.spans != nil {
		c.spans.add(span{Trace: c.id, Name: "client.request", Start: t0, End: t1})
		c.times = append(c.times, echoTiming{c.id, jr.QueueNs, jr.RunNs})
	}
}

func (c *echoClient) failed(err error) {
	c.bad++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// stop shuts the system down in drain order — listener and in-flight
// handlers first, then the server's queues and scheduler — and returns
// the server's final stats.
func (sys *echoSystem) stop() (serve.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range sys.clients {
		c.hc.CloseIdleConnections()
	}
	if err := sys.hs.Shutdown(ctx); err != nil {
		return serve.Stats{}, fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-sys.served; err != http.ErrServerClosed {
		return serve.Stats{}, fmt.Errorf("serve: %w", err)
	}
	if err := sys.srv.Shutdown(ctx); err != nil {
		return serve.Stats{}, fmt.Errorf("server shutdown: %w", err)
	}
	return sys.srv.Stats(), nil
}

func runServeEcho(cfg runConfig) (*pass, error) {
	p := &pass{workload: "serve-echo", traced: cfg.traced}
	sys, setups, err := timedBuild(func() (*echoSystem, error) { return buildEcho(cfg) })
	if err != nil {
		return nil, err
	}
	p.setups = setups
	var clientSpans *spanLog
	if cfg.traced {
		clientSpans = newSpanLog(echoSpanCap)
		sys.handler.n.Store(0) // keep only the window's handler spans
	}
	var warm uint64
	for i, c := range sys.clients {
		c.lat = sampleBuf(fmt.Sprint("echo", i), echoLatSlots)[:0]
		c.spans = clientSpans
		warm += c.sent
	}
	st0 := sys.srv.Stats()
	sc0, _ := sys.srv.Scheduler().Stats()
	var stop atomic.Bool
	var wg sync.WaitGroup
	measure(cfg.window, p,
		func() {
			for _, c := range sys.clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						c.do(sys.url, true)
					}
				}()
			}
		},
		func() {
			stop.Store(true)
			wg.Wait()
		})
	sc1, _ := sys.srv.Scheduler().Stats()
	var sent uint64
	for _, c := range sys.clients {
		p.lat = append(p.lat, c.lat...)
		p.failed += c.bad
		sent += c.sent
		if c.firstErr != nil {
			p.fail("client: %d bad requests, first: %v", c.bad, c.firstErr)
		}
	}
	p.ops = sent - warm
	st, err := sys.stop()
	if err != nil {
		return nil, err
	}
	if ok, tenant := st.Conserved(); !ok {
		p.fail("admission counters not conserved (tenant %q)", tenant)
	}
	if st.Total.Received != sent {
		p.fail("server received %d requests, clients sent %d", st.Total.Received, sent)
	}
	if cfg.traced {
		p.spans = append(clientSpans.spans(), sys.handler.spans()...)
		p.layer = serveLayer(p, sys, st0, st, sc0.Total, sc1.Total)
		p.layer = append(p.layer, metric{"runtime.gc_cpu_share", "share", share(p.use.gcCPU, p.use.allCPU)})
	}
	return p, nil
}

// serveLayer derives the serve, sched and runtime per-layer metrics of
// a traced serve-echo pass. It joins each client.request span to its
// serve.handler span by request id, and adds serve.queue and serve.run
// children built from the response's durations; the response carries
// no timestamps, so they are placed back to back at the handler's end.
func serveLayer(p *pass, sys *echoSystem, st0, st serve.Stats, a, b sched.WorkerCounts) []metric {
	handlers := map[uint64]span{}
	for _, h := range sys.handler.spans() {
		handlers[h.Trace] = h
	}
	clients := map[uint64]span{}
	for _, s := range p.spans {
		if s.Name == "client.request" {
			clients[s.Trace] = s
		}
	}
	var handlerNs, unattributed, queue, run []uint32
	for _, h := range handlers {
		handlerNs = append(handlerNs, nsSample(h.dur()))
		if c, ok := clients[h.Trace]; ok {
			unattributed = append(unattributed, nsSample(c.dur()-h.dur()))
		}
	}
	for _, c := range sys.clients {
		for _, t := range c.times {
			queue = append(queue, nsSample(t.queueNs))
			run = append(run, nsSample(t.runNs))
			h, ok := handlers[t.id]
			if !ok {
				continue
			}
			runStart := h.End - t.runNs
			p.spans = append(p.spans,
				span{Trace: t.id, Name: "serve.queue", Parent: "serve.handler", Start: runStart - t.queueNs, End: runStart},
				span{Trace: t.id, Name: "serve.run", Parent: "serve.handler", Start: runStart, End: h.End})
		}
	}
	reqs := float64(p.ops)
	received := float64(st.Total.Received - st0.Total.Received)
	rejected := float64(st.Total.RejectedBusy + st.Total.RejectedDrain - st0.Total.RejectedBusy - st0.Total.RejectedDrain)
	m := []metric{
		{"sched.parks_per_req", "count", share(float64(b.Parks-a.Parks), reqs)},
		{"sched.wakes_per_req", "count", share(float64(b.Wakes-a.Wakes), reqs)},
		{"serve.handler_us_p50", "us", quantile(handlerNs, 0.5) / 1e3},
		{"serve.handler_us_p99", "us", quantile(handlerNs, 0.99) / 1e3},
		{"serve.queue_us_p50", "us", quantile(queue, 0.5) / 1e3},
		{"serve.run_us_p50", "us", quantile(run, 0.5) / 1e3},
		{"serve.ingest_us_p50", "us", float64(st.Stages.Ingest.P50) / 1e3},
		{"serve.respond_us_p50", "us", float64(st.Stages.Respond.P50) / 1e3},
		{"serve.reject_share", "share", share(rejected, received)},
		{"serve.unattributed_us_p50", "us", quantile(unattributed, 0.5) / 1e3},
	}
	clientP50 := quantile(p.lat, 0.5) / 1e3
	stages := m[6].value + m[4].value + m[5].value + m[7].value
	p.notes = append(p.notes,
		fmt.Sprintf("serve-echo reconciliation (medians, us): client %.2f; handler %.2f + unattributed %.2f = %.2f (gap %+.2f)",
			clientP50, m[2].value, m[9].value, m[2].value+m[9].value, clientP50-m[2].value-m[9].value),
		fmt.Sprintf("serve-echo stages (medians, us): ingest %.2f + queue %.2f + run %.2f + respond %.2f = %.2f; + unattributed = %.2f (gap to client %+.2f); ingest and respond are histogram bucket bounds",
			m[6].value, m[4].value, m[5].value, m[7].value, stages, stages+m[9].value, clientP50-stages-m[9].value))
	return m
}
