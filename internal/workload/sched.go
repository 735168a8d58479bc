package workload

// Scheduler workload: the fork-join fib tree, the standard shape the
// work-stealing literature measures (deep spawn chains, LIFO locality,
// steals carrying large subtrees; the ABP benchmark).  It verifies its
// exact task count, so a benchmark run doubles as a conservation check.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcasdeque/sched"
)

// SchedResult is one scheduler workload run.
type SchedResult struct {
	Tasks   uint64 // tasks executed (verified against the exact expectation)
	Elapsed time.Duration
}

// RunSchedFib runs the fork-join fib(n) tree on s and verifies the
// task count (2·fib(n+1)−1 invocations).
func RunSchedFib(s *sched.Scheduler, n int) (SchedResult, error) {
	var tasks atomic.Uint64
	var wg sync.WaitGroup
	var fib func(n int) sched.Task
	fib = func(n int) sched.Task {
		return func(w *sched.Worker) {
			defer wg.Done()
			tasks.Add(1)
			if n < 2 {
				return
			}
			wg.Add(2)
			w.Spawn(fib(n - 1))
			w.Spawn(fib(n - 2))
		}
	}
	start := time.Now()
	wg.Add(1)
	if err := s.Submit(fib(n)); err != nil {
		return SchedResult{}, err
	}
	wg.Wait()
	res := SchedResult{Tasks: tasks.Load(), Elapsed: time.Since(start)}
	if want := 2*fibOf(n+1) - 1; res.Tasks != want {
		return res, fmt.Errorf("fib(%d): ran %d tasks, want %d", n, res.Tasks, want)
	}
	return res, nil
}

// fibOf is the closed recurrence the tree size is checked against.
func fibOf(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}
