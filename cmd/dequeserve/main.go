// Command dequeserve runs the serve package as a standalone job
// service: an HTTP server where POSTed jobs land in per-tenant bounded
// queues, flow through the weighted round-robin pump into the
// work-stealing scheduler, and answer with their results.  The full
// observability surface (/metrics, /debug/pprof) is mounted alongside
// /jobs and /healthz; poll /metrics with cmd/dequetop for a live view.
//
// SIGTERM or SIGINT begins a graceful drain: new submissions answer
// 503, in-flight jobs complete, and once the scheduler has quiesced the
// process prints its admission-conservation report and exits — status 0
// if the counters conserve, 1 if not.  -drain bounds how long waiting
// clients are held; past the deadline they are released with 503 while
// the job drain finishes in the background.
//
// Usage:
//
//	dequeserve -listen :8080 -workers 8 -backend chaselev \
//	    -tenants gold:3:512,free:1:128 -drain 10s
//
// Then:
//
//	curl -d '{"kind":"fib","n":30}' -H 'X-Tenant: gold' localhost:8080/jobs
//	go run ./cmd/dequetop -url http://localhost:8080/metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcasdeque/sched"
	"dcasdeque/serve"
)

var (
	listenFlag   = flag.String("listen", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFileFlag = flag.String("addr-file", "", "write the actual listen address to this file (for scripts using -listen :0)")
	workersFlag  = flag.Int("workers", 0, "scheduler workers (0 = GOMAXPROCS)")
	backendFlag  = flag.String("backend", "chaselev", "deque backend: chaselev or array")
	tenantsFlag  = flag.String("tenants", "default:1", "tenant list as name:weight[:queuecap],...")
	queueFlag    = flag.Int("queue-cap", 1024, "default per-tenant queue capacity")
	drainFlag    = flag.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM")
	nameFlag     = flag.String("name", "dequeserve", "telemetry registration name")
)

func main() {
	flag.Parse()
	log.SetPrefix("dequeserve: ")
	log.SetFlags(0)

	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Fatal(err)
	}
	schedOpts := []sched.Option{sched.WithTelemetryName(*nameFlag + ".sched")}
	if *workersFlag > 0 {
		schedOpts = append(schedOpts, sched.WithWorkers(*workersFlag))
	}
	switch *backendFlag {
	case "chaselev":
		schedOpts = append(schedOpts, sched.WithChaseLev())
	case "array":
		schedOpts = append(schedOpts, sched.WithArrayDeques())
	default:
		log.Fatalf("unknown -backend %q (chaselev or array)", *backendFlag)
	}

	s := serve.New(
		serve.WithName(*nameFlag),
		serve.WithTenants(tenants...),
		serve.WithQueueCapacity(*queueFlag),
		serve.WithSchedOptions(schedOpts...),
	)

	ln, err := net.Listen("tcp", *listenFlag)
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(addr), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	hs := &http.Server{Handler: s.Mux()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving /jobs on %s (%d tenants, backend %s, drain %v)",
		addr, len(tenants), *backendFlag, *drainFlag)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigCh
	log.Printf("%v: draining (deadline %v)", sig, *drainFlag)

	ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	drainErr := s.Shutdown(ctx)
	// Stop the listener after the drain so late requests were answered
	// 503 by the server rather than connection-refused by the OS.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = hs.Shutdown(shutCtx)

	st := s.Stats()
	ok, tenant := st.Conserved()
	report := struct {
		Addr      string      `json:"addr"`
		DrainErr  string      `json:"drain_err,omitempty"`
		Conserved bool        `json:"conserved"`
		Violating string      `json:"violating_tenant,omitempty"`
		Stats     serve.Stats `json:"stats"`
	}{Addr: addr, Conserved: ok, Violating: tenant, Stats: st}
	if drainErr != nil {
		report.DrainErr = drainErr.Error()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(report)
	if !ok {
		log.Printf("CONSERVATION VIOLATED (tenant %q)", tenant)
		os.Exit(1)
	}
	log.Printf("drained cleanly: %d completed, %d abandoned, counters conserve",
		st.Total.Completed, st.Total.Abandoned)
}

// parseTenants parses "name:weight[:queuecap],..." into TenantConfigs.
func parseTenants(s string) ([]serve.TenantConfig, error) {
	var out []serve.TenantConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("bad tenant %q (want name:weight[:queuecap])", part)
		}
		w, err := strconv.Atoi(fields[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight in %q", part)
		}
		tc := serve.TenantConfig{Name: fields[0], Weight: w}
		if len(fields) == 3 {
			c, err := strconv.Atoi(fields[2])
			if err != nil || c < 1 {
				return nil, fmt.Errorf("bad tenant queue cap in %q", part)
			}
			tc.QueueCap = c
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in %q", s)
	}
	return out, nil
}
