package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/internal/workload"
	"dcasdeque/sched"
)

// sched-fib: one submitter issues fib(fibN) fork-join trees back to
// back into a Chase–Lev scheduler; an op is one tree, submit to join.
const (
	fibN        = 16  // 2·fib(17)−1 = 3193 tasks a tree
	fibWarm     = 200 // warm-up trees per set-up
	fibSpawnK   = 256 // traced: about one spawn in fibSpawnK is timed
	fibLatSlots = 1 << 16
	fibSpanCap  = 1 << 18
)

// fibTasks is the exact task count of one fib(n) tree, 2·fib(n+1)−1.
func fibTasks(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for range n + 1 {
		a, b = b, a+b
	}
	return 2*a - 1
}

// newFibSched builds the scheduler under test. sched.New's own default
// backend is the array deque; the workload names Chase–Lev, the backend
// the scheduler's owner/thief split was made for and the one serve
// uses, so no DCAS runs on this workload.
func newFibSched(traced bool) *sched.Scheduler {
	opts := []sched.Option{sched.WithChaseLev()}
	if traced {
		opts = append(opts, sched.WithTelemetry())
	}
	return sched.New(opts...)
}

func shutdownSched(s *sched.Scheduler) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// fibTracer runs fib trees with a span at each sched boundary the
// benchmark can see: the tree (submit to join), the Submit call, the wait
// from the submit stamp to the root task's first instruction, and a
// seeded sample of Worker.Spawn calls.
type fibTracer struct {
	s     *sched.Scheduler
	seed  uint64
	spans *spanLog
	mu    sync.Mutex
	spawn []uint32 // sampled Spawn durations, ns; guarded by mu
	first []uint32 // submit stamp → root first instruction, ns
}

// tree runs one traced fib(fibN) tree as trace id.
func (ft *fibTracer) tree(id uint64) (time.Duration, error) {
	var tasks atomic.Uint64
	var rootStart atomic.Int64
	var wg sync.WaitGroup
	var fib func(n int, path uint64) sched.Task
	fib = func(n int, path uint64) sched.Task {
		return func(w *sched.Worker) {
			defer wg.Done()
			if path == 1 {
				rootStart.Store(now())
			}
			tasks.Add(1)
			if n < 2 {
				return
			}
			wg.Add(2)
			for c, m := range [2]int{n - 1, n - 2} {
				child := path<<1 | uint64(c)
				if mix(ft.seed^id<<20^child)%fibSpawnK != 0 {
					w.Spawn(fib(m, child))
					continue
				}
				t0 := now()
				w.Spawn(fib(m, child))
				t1 := now()
				ft.spans.add(span{Trace: id, Name: "sched.spawn", Parent: "fib.tree", Start: t0, End: t1})
				ft.mu.Lock()
				ft.spawn = append(ft.spawn, nsSample(t1-t0))
				ft.mu.Unlock()
			}
		}
	}
	wg.Add(1)
	t0 := now()
	if err := ft.s.Submit(fib(fibN, 1)); err != nil {
		return 0, err
	}
	t1 := now()
	wg.Wait()
	t2 := now()
	rs := rootStart.Load()
	ft.spans.add(span{Trace: id, Name: "fib.tree", Start: t0, End: t2})
	ft.spans.add(span{Trace: id, Name: "sched.submit", Parent: "fib.tree", Start: t0, End: t1})
	ft.spans.add(span{Trace: id, Name: "sched.first_run", Parent: "fib.tree", Start: t0, End: rs})
	ft.first = append(ft.first, nsSample(rs-t0))
	if got, want := tasks.Load(), fibTasks(fibN); got != want {
		return 0, fmt.Errorf("fib(%d): ran %d tasks, want %d", fibN, got, want)
	}
	return time.Duration(t2 - t0), nil
}

func runSchedFib(cfg runConfig) (*pass, error) {
	p := &pass{workload: "sched-fib", traced: cfg.traced}
	var checks []string
	// Warm-up trees that fail count as failed ops, not as a failed build.
	s, setups, _ := timedBuild(func() (*sched.Scheduler, error) {
		s := newFibSched(cfg.traced)
		for range fibWarm {
			if _, err := workload.RunSchedFib(s, fibN); err != nil {
				p.failed++
				checks = append(checks, "warm-up: "+err.Error())
			}
		}
		return s, nil
	})
	p.setups = setups

	var ft *fibTracer
	one := func(uint64) (time.Duration, error) {
		r, err := workload.RunSchedFib(s, fibN)
		return r.Elapsed, err
	}
	if cfg.traced {
		ft = &fibTracer{s: s, seed: cfg.seed, spans: newSpanLog(fibSpanCap)}
		one = ft.tree
	}

	lat := sampleBuf("fib", fibLatSlots)[:0]
	var stop atomic.Bool
	var done sync.WaitGroup
	st0, _ := s.Stats()
	measure(cfg.window, p,
		func() {
			done.Add(1)
			go func() {
				defer done.Done()
				for !stop.Load() {
					p.ops++
					d, err := one(p.ops)
					if err != nil {
						p.failed++
						checks = append(checks, err.Error())
					} else if len(lat) < cap(lat) {
						lat = append(lat, nsSample(int64(d)))
					}
				}
			}()
		},
		func() {
			stop.Store(true)
			done.Wait()
		})
	st1, _ := s.Stats()
	if err := shutdownSched(s); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	p.lat = lat
	for _, c := range checks[:min(len(checks), 5)] {
		p.fail("%s", c)
	}
	if cfg.traced {
		p.spans = ft.spans.spans()
		p.layer = schedLayer(p, st0.Total, st1.Total, ft)
	}
	return p, nil
}

// schedLayer derives the sched per-layer metrics of a traced sched-fib
// pass from the scheduler's counters over the window and the spans.
func schedLayer(p *pass, a, b sched.WorkerCounts, ft *fibTracer) []metric {
	trees := float64(p.ops)
	steals := float64(b.Steals - a.Steals)
	fails := float64(b.StealFails - a.StealFails)
	runs := float64(b.Runs - a.Runs)
	return []metric{
		{"deque.steal_batch_mean", "count", share(float64(b.Stolen-a.Stolen), steals)},
		{"sched.submit_to_run_us_p50", "us", quantile(ft.first, 0.5) / 1e3},
		{"sched.spawn_ns_p50", "ns", quantile(ft.spawn, 0.5)},
		{"sched.steals_per_ktask", "count", share(steals, runs/1e3)},
		{"sched.steal_fail_share", "share", share(fails, steals+fails)},
		{"sched.parks_per_tree", "count", share(float64(b.Parks-a.Parks), trees)},
		{"sched.wakes_per_tree", "count", share(float64(b.Wakes-a.Wakes), trees)},
	}
}
