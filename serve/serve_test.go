package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcasdeque/sched"
)

// post runs one job request against the server and returns the
// recorder.  The handler blocks until the job completes (or is
// rejected), so callers that want concurrency use goroutines.
func post(s *Server, tenant, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	s.ServeHTTP(rr, req)
	return rr
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func mustConserve(t *testing.T, s *Server) Stats {
	t.Helper()
	st := s.Stats()
	if ok, tn := st.Conserved(); !ok {
		t.Fatalf("conservation violated (tenant %q): %+v", tn, st)
	}
	return st
}

func TestJobRoundTrip(t *testing.T) {
	s := New(WithSchedOptions(sched.WithWorkers(2)))
	defer shutdown(t, s)

	rr := post(s, "", `{"kind":"fib","n":10}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, body %q", rr.Code, rr.Body.String())
	}
	var resp JobResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result != 55 { // fib(10)
		t.Fatalf("fib(10) = %d, want 55", resp.Result)
	}
	if resp.Tenant != "default" {
		t.Fatalf("tenant %q, want default", resp.Tenant)
	}
	st := mustConserve(t, s)
	if st.Total.Completed != 1 || st.Total.Accepted != 1 || st.Total.Received != 1 {
		t.Fatalf("counters: %+v", st.Total)
	}
	if st.Stages.Ingest.N != 1 || st.Stages.Submit.N != 1 || st.Stages.Run.N != 1 || st.Stages.Respond.N != 1 {
		t.Fatalf("stage counts: %+v", st.Stages)
	}
}

func TestBadRequests(t *testing.T) {
	s := New()
	defer shutdown(t, s)
	for _, body := range []string{"not json", `{"kind":"nope"}`, `{"kind":"fib","n":-1}`} {
		if rr := post(s, "", body); rr.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, rr.Code)
		}
	}
	if rr := httptest.NewRecorder(); true {
		s.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET: status %d, want 405", rr.Code)
		}
	}
	// Malformed requests precede admission: the counters never moved.
	st := s.Stats()
	if st.Total.Received != 0 {
		t.Fatalf("received %d, want 0", st.Total.Received)
	}
}

// blockedServer builds a server whose scheduler cannot make progress:
// its one worker is parked on a gate task and the injector is filled,
// so the pump's blocking Submit wedges and tenant queues back up.
// Returns the gate to close for release.
func blockedServer(t *testing.T, queueCap int) (*Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	s := New(
		WithTenants(TenantConfig{Name: "default", Weight: 1, QueueCap: queueCap}),
		WithSchedOptions(sched.WithWorkers(1), sched.WithInjectorCapacity(1)),
	)
	// Occupy the sole worker.
	if err := s.Scheduler().Submit(func(*sched.Worker) { <-gate }); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick it up, then fill the injector so
	// the pump's next Submit blocks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Scheduler().TrySubmit(func(*sched.Worker) {})
		if err == sched.ErrSaturated {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("injector never saturated")
		}
	}
	return s, gate
}

func TestSaturationReturns429WithRetryAfter(t *testing.T) {
	s, gate := blockedServer(t, 2)
	var wg sync.WaitGroup
	var got429 atomic.Uint64
	// With the scheduler wedged, at most queueCap + 1 (in the pump's
	// hand) requests can be admitted; the rest must bounce with 429.
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := post(s, "", `{"kind":"echo","data":"x"}`)
			if rr.Code == http.StatusTooManyRequests {
				got429.Add(1)
				if ra := rr.Header().Get("Retry-After"); ra == "" {
					t.Error("429 missing Retry-After")
				}
			}
		}()
	}
	// Wait until every request has passed admission: rejected ones have
	// returned, accepted ones are parked on their results.  With the
	// scheduler wedged, admitted ≤ queue capacity + the one in the
	// pump's hand, so rejections must appear.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats().Total
		if st.Received == n && st.RejectedBusy >= 1 && got429.Load() == st.RejectedBusy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never settled: %+v, %d 429s seen", st, got429.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // release the worker; accepted requests complete
	wg.Wait()
	shutdown(t, s)
	st := mustConserve(t, s)
	if st.Total.RejectedBusy == 0 {
		t.Fatal("no 429s recorded")
	}
	if st.Total.Received != n {
		t.Fatalf("received %d, want %d", st.Total.Received, n)
	}
	if st.Total.Accepted != st.Total.Completed {
		t.Fatalf("accepted %d != completed %d after clean drain",
			st.Total.Accepted, st.Total.Completed)
	}
}

func TestDrainWindowReturns503(t *testing.T) {
	s := New()
	// Begin draining in the background; an idle server drains
	// immediately, after which requests must bounce with 503.
	shutdown(t, s)
	rr := post(s, "", `{"kind":"fib","n":5}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	st := mustConserve(t, s)
	if st.Total.RejectedDrain != 1 {
		t.Fatalf("rejected_drain %d, want 1", st.Total.RejectedDrain)
	}
	// healthz reflects the drain.
	hr := httptest.NewRecorder()
	s.Mux().ServeHTTP(hr, httptest.NewRequest("GET", "/healthz", nil))
	if hr.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", hr.Code)
	}
}

func TestShutdownCompletesInFlight(t *testing.T) {
	s := New(WithSchedOptions(sched.WithWorkers(2)))
	const n = 64
	var wg sync.WaitGroup
	var ok atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rr := post(s, "", `{"kind":"spin","n":2000}`); rr.Code == http.StatusOK {
				ok.Add(1)
			}
		}()
	}
	// Shut down while requests are in flight; accepted ones must still
	// complete with 200, later ones bounce with 503.
	time.Sleep(time.Millisecond)
	shutdown(t, s)
	wg.Wait()
	st := mustConserve(t, s)
	if st.Total.Completed != ok.Load() {
		t.Fatalf("completed %d, clients saw %d OKs", st.Total.Completed, ok.Load())
	}
	if st.Total.Abandoned != 0 {
		t.Fatalf("clean drain abandoned %d requests", st.Total.Abandoned)
	}
	if got := st.Total.Completed + st.Total.RejectedDrain + st.Total.RejectedBusy; got != n {
		t.Fatalf("responses %d, want %d", got, n)
	}
}

func TestDrainDeadlineReleasesWaiters(t *testing.T) {
	s, gate := blockedServer(t, 4)
	var wg sync.WaitGroup
	var got503 atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rr := post(s, "", `{"kind":"echo","data":"hi"}`); rr.Code == http.StatusServiceUnavailable {
			got503.Add(1)
		}
	}()
	// Wait until the request is admitted (accepted counter moves).
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Total.Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// Shutdown with an immediately expired deadline: the waiter must be
	// released with 503, not stranded.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	wg.Wait()
	if got503.Load() != 1 {
		t.Fatal("waiter not released with 503")
	}
	// Release the worker and finish the background drain.
	close(gate)
	shutdown(t, s)
	st := mustConserve(t, s)
	if st.Total.Abandoned != 1 {
		t.Fatalf("abandoned %d, want 1", st.Total.Abandoned)
	}
}

func TestWeightedRoundRobinSchedule(t *testing.T) {
	// No live pump while the test owns the queues: it fills them by hand
	// and runs cycles with a capturing submit.  The pump starts only for
	// Shutdown, once the leftovers are drained (they were never admitted,
	// so the pump must not submit them).
	s := newServer(WithTenants(
		TenantConfig{Name: "gold", Weight: 3, QueueCap: 64},
		TenantConfig{Name: "free", Weight: 1, QueueCap: 64},
	))
	defer func() {
		for s.cycle(func(*pending) {}) {
		}
		go s.pump()
		shutdown(t, s)
	}()
	for i := 0; i < 6; i++ {
		for _, tn := range s.tenants {
			if err := tn.queue.PushRight(&pending{t: tn, done: make(chan result, 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The capture callback does not touch the ingress word: these
	// pendings were stuffed in directly, never admitted.
	var order []string
	for cycle := 0; cycle < 2; cycle++ {
		if !s.cycle(func(p *pending) { order = append(order, p.t.name) }) {
			t.Fatal("cycle moved nothing")
		}
	}
	// Two cycles over full backlogs: 3 gold + 1 free per cycle.
	want := []string{"gold", "gold", "gold", "free", "gold", "gold", "gold", "free"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestWeightedFairnessUnderLoad(t *testing.T) {
	// End to end: both tenants saturate a 1-worker server; the 3:1
	// weighting must show up in completions, within tolerance.
	s := New(
		WithTenants(
			TenantConfig{Name: "gold", Weight: 3, QueueCap: 256},
			TenantConfig{Name: "free", Weight: 1, QueueCap: 256},
		),
		WithSchedOptions(sched.WithWorkers(1)),
	)
	var wg sync.WaitGroup
	const perTenant = 120
	for _, tenant := range []string{"gold", "free"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				post(s, tn, `{"kind":"spin","n":20000}`)
			}(tenant)
		}
	}
	wg.Wait()
	shutdown(t, s)
	st := mustConserve(t, s)
	var gold, free uint64
	for _, tc := range st.Tenants {
		switch tc.Name {
		case "gold":
			gold = tc.Completed
		case "free":
			free = tc.Completed
		}
	}
	if gold != perTenant || free != perTenant {
		t.Fatalf("completions gold=%d free=%d, want %d each", gold, free, perTenant)
	}
}

func TestUnknownTenantFallsToCatchAll(t *testing.T) {
	s := New(WithTenants(
		TenantConfig{Name: "main", Weight: 1},
		TenantConfig{Name: "other", Weight: 1},
	))
	defer shutdown(t, s)
	rr := post(s, "nonexistent", `{"kind":"fib","n":3}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var resp JobResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "main" {
		t.Fatalf("tenant %q, want catch-all main", resp.Tenant)
	}
}

func TestExpositionMuxServesRegistry(t *testing.T) {
	s := New(WithName("servetest"))
	mux := s.Mux()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"kind":"fib","n":7}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("jobs: %d", rr.Code)
	}
	scrape := func() string {
		pr := httptest.NewRecorder()
		mux.ServeHTTP(pr, httptest.NewRequest("GET", "/metrics", nil))
		return pr.Body.String()
	}
	body := scrape()
	for _, want := range []string{
		`dcasdeque_serve_requests_total{server="servetest",tenant="default",outcome="received"} 1`,
		`dcasdeque_serve_requests_total{server="servetest",tenant="default",outcome="accepted"} 1`,
		`dcasdeque_serve_requests_total{server="servetest",tenant="default",outcome="completed"} 1`,
		`dcasdeque_serve_stage_latency_seconds_count{server="servetest",stage="ingest"} 1`,
		`dcasdeque_serve_stage_latency_seconds_count{server="servetest",stage="run"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
	gone := httptest.NewRecorder()
	mux.ServeHTTP(gone, httptest.NewRequest("GET", "/telemetry", nil))
	if gone.Code != http.StatusNotFound {
		t.Errorf("GET /telemetry: %d, want 404 (/metrics is the one exposition)", gone.Code)
	}
	// Unregistration on shutdown: the entry disappears.
	shutdown(t, s)
	if strings.Contains(scrape(), `server="servetest"`) {
		t.Fatal("serve entry still registered after Shutdown")
	}
}
