// Command dequebench runs the serve overload sweep: the job service
// measured as a server, over real HTTP on a loopback listener.  For each
// scheduler backend (chaselev, array) it
//
//  1. calibrates: a closed loop finds the sustainable capacity C
//     (clients back to back, so throughput self-limits to what the
//     server completes);
//  2. sweeps: offers open-loop load at 0.5C, 0.9C and 1.5C on a fixed
//     arrival schedule.  The overload point is the thesis: a
//     bounded-admission server answers with nonzero 429s and bounded
//     completion latency, where an unbounded queue would show latency
//     growing with the backlog;
//  3. drains the server and checks its admission conservation laws; a
//     violation exits nonzero.
//
// Every other measurement lives elsewhere: the B1–B8 experiments are Go
// benchmarks in bench_test.go, end-to-end and per-layer speed is
// perfbench's (BENCHMARK.json), and the randomized serve fault
// certificate is `dequestress -serve`.
//
// Usage:
//
//	dequebench [-duration 2s]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"dcasdeque/internal/loadgen"
	"dcasdeque/internal/metrics"
	"dcasdeque/sched"
	"dcasdeque/serve"
)

var durFlag = flag.Duration("duration", 2*time.Second, "load duration of the calibration and of each sweep level")

const (
	// spinN sets the job grain to a few hundred µs of CPU: heavy enough
	// that the scheduler — not the HTTP stack — is the bottleneck, so
	// the sweep measures admission behaviour rather than connection
	// handling.
	spinN    = 200_000
	queueCap = 256 // per-tenant queue depth — the 429 threshold
)

// levels are the offered loads, as fractions of calibrated capacity.
var levels = []float64{0.5, 0.9, 1.5}

// backends are the deque backends the sweep races.
var backends = []struct {
	name string
	opt  sched.Option
}{
	{"chaselev", sched.WithChaseLev()},
	{"array", sched.WithArrayDeques()},
}

func main() {
	flag.Parse()
	if *durFlag <= 0 {
		fmt.Fprintln(os.Stderr, "dequebench: -duration must be positive")
		os.Exit(2)
	}
	fmt.Printf("%s, GOMAXPROCS=%d, NumCPU=%d, %v per level\n\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *durFlag)
	capT := metrics.NewTable("backend", "capacity(rps)", "p99(us)")
	sweepT := metrics.NewTable("backend", "level", "offered", "ok/s", "429", "503", "p50(us)", "p99(us)", "p999(us)")
	for _, b := range backends {
		if err := sweep(b.name, b.opt, *durFlag, capT, sweepT); err != nil {
			fmt.Fprintf(os.Stderr, "dequebench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
	}
	fmt.Printf("== closed-loop capacity calibration ==\n%s\n", capT)
	fmt.Printf("== open-loop sweep (0.5C / 0.9C / 1.5C; overload must show 429s, not runaway latency) ==\n%s\n", sweepT)
}

// sweep calibrates one backend's capacity, offers the open-loop levels
// against it, and drains the server, adding one row to capT and one per
// level to sweepT.
func sweep(name string, opt sched.Option, dur time.Duration, capT, sweepT *metrics.Table) (err error) {
	url, stop, err := start(opt)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	// Calibration: closed loop, after a short discarded warmup.
	calib := loadgen.Config{URL: url, Kind: "spin", N: spinN, Mode: "closed",
		Concurrency: 4 * runtime.GOMAXPROCS(0), Duration: dur / 4}
	if _, err := loadgen.Run(calib); err != nil {
		return err
	}
	calib.Duration = dur
	cres, err := loadgen.Run(calib)
	if err != nil {
		return err
	}
	capT.AddRow(name, cres.Throughput, float64(cres.Latency.P99)/1e3)

	for _, level := range levels {
		// In-flight is bounded at 1024: enough outstanding requests to
		// keep the tenant queue saturated at overload (the 429 path),
		// small enough that one process holding both conn ends stays far
		// from the fd limit across the whole sweep.
		res, err := loadgen.Run(loadgen.Config{URL: url, Kind: "spin", N: spinN, Mode: "open",
			Rate: level * cres.Throughput, Duration: dur, MaxInFlight: 1024})
		if err != nil {
			return err
		}
		sweepT.AddRow(name, fmt.Sprintf("%.1fC", level), res.Offered, res.Throughput,
			res.Busy, res.Drain, float64(res.Latency.P50)/1e3,
			float64(res.Latency.P99)/1e3, float64(res.Latency.P999)/1e3)
	}
	return nil
}

// start boots a server on a loopback listener and returns its job URL
// and a stop function that drains it and checks conservation.
func start(opt sched.Option) (string, func() error, error) {
	// The injector is kept small (64) so sustained overload backs up out
	// of the scheduler into the tenant queue — with the 1024-slot
	// default, the injector alone could swallow the whole in-flight
	// window and the 429 path would never engage.
	s := serve.New(
		serve.WithTenants(serve.TenantConfig{Name: "default", Weight: 1, QueueCap: queueCap}),
		serve.WithSchedOptions(opt, sched.WithInjectorCapacity(64)),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Mux()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.Shutdown(ctx)
		_ = hs.Close()
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if ok, tenant := s.Stats().Conserved(); !ok {
			return fmt.Errorf("drain: conservation violated (tenant %q)", tenant)
		}
		return nil
	}
	return fmt.Sprintf("http://%s/jobs", ln.Addr()), stop, nil
}
