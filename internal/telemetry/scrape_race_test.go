package telemetry_test

// Race coverage for the process-wide exporter: deques and schedulers
// register, update and unregister concurrently with HTTP scrapes.  The
// exporter's contract is that snapshotAll copies the registry under the
// lock and snapshots outside it, and that every snapshot source (sinks and
// their DCAS lanes, the mem callback) is safe to call concurrently with
// writers — this test is the -race certificate for that contract,
// including the memory-snapshot path Register grew for the soak
// harness.  It lives in an external test package so it exercises the
// same import surface as real clients (the deque wrappers).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dcasdeque/deque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/telemetry"
)

func TestExporterScrapeRace(t *testing.T) {
	srv := httptest.NewServer(telemetry.PrometheusHandler())
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Deque registrants: register, write counters, re-register (replace),
	// unregister — churning the registry while scrapes walk it.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("race-deque-%d", g)
			sink := telemetry.NewSink()
			p := sink.Instrument(dcas.Default())
			var a, b dcas.Loc
			mem := func() telemetry.MemSnapshot { return telemetry.MemSnapshot{} }
			for !stop.Load() {
				unreg := telemetry.Register(name, sink, mem)
				for i := 0; i < 64; i++ {
					sink.Op(telemetry.Left, telemetry.Pushes, uint64(i%3))
					p.DCAS(&a, &b, 0, 0, 0, 0)
				}
				unreg()
			}
		}(g)
	}

	// Scheduler registrants, same churn on the RegisterSched path.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("race-sched-%d", g)
			sink := telemetry.NewSchedSink(2)
			for !stop.Load() {
				unreg := telemetry.RegisterSched(name, sink)
				sink.Inc(telemetry.SchedExternal, telemetry.SchedSubmits)
				unreg()
			}
		}(g)
	}

	// A live deque under churn, registered by name: its mem callback
	// (reading the arena ledgers) runs inside every scrape while pushes
	// and pops mutate those same ledgers.
	d := deque.NewList[int](deque.WithTelemetryName("race-live"))
	defer d.CloseTelemetry()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_ = d.PushRight(i)
			_, _ = d.PopLeft()
		}
	}()

	// Scrapers: full-body HTTP reads of the exposition.
	const scrapes = 15
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape body: %v", err)
					return
				}
				if i == 0 && !strings.Contains(string(body), `dcasdeque_arena_events_total{deque="race-live",arena="slots",event="allocs"}`) {
					// The named live deque must appear with its memory block.
					t.Errorf("scrape missing the live deque's arena series:\n%.200s", body)
				}
			}
		}()
	}

	// Let the scrapers finish first so at least some scrapes overlap the
	// registry churn, then stop the churners.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The scraper goroutines bound the test's duration; the churners spin
	// until told to stop once scraping has had its fill.  A short settle
	// keeps the overlap generous without a fixed sleep race.
	for i := 0; i < scrapes; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	stop.Store(true)
	<-done
}
