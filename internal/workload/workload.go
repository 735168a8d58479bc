// Package workload provides the workload generators and drivers behind
// the benchmark harness: operation-mix throughput runs over any deque
// implementation, and the synthetic work-stealing computation that
// reproduces the paper's motivating application ("deques ... currently
// used in load balancing algorithms [4]").
package workload

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
)

// labeled runs f on the current goroutine under pprof labels identifying
// the workload kind and worker index, so CPU and goroutine profiles of a
// run can be sliced per worker ("which worker burned the retry time?")
// without any change to the profiled code.
func labeled(kind string, w int, f func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"dcasdeque_workload", kind,
		"dcasdeque_worker", strconv.Itoa(w),
	), func(context.Context) { f() })
}

// Deque is the word-level deque vocabulary implemented by both core
// algorithms and the comparable baselines.
type Deque interface {
	PushLeft(v uint64) spec.Result
	PushRight(v uint64) spec.Result
	PopLeft() (uint64, spec.Result)
	PopRight() (uint64, spec.Result)
}

// MixConfig parameterizes an operation-mix run.
type MixConfig struct {
	// Workers is the number of concurrent goroutines.
	Workers int
	// OpsPerWorker is each worker's operation count.
	OpsPerWorker int
	// PushPct is the percentage of operations that are pushes (0–100).
	PushPct int
	// SplitEnds pins even workers to the left end and odd workers to the
	// right end (measuring two-end parallelism); otherwise every worker
	// uses all four operations.
	SplitEnds bool
	// Seed makes the generated programs reproducible.
	Seed uint64
	// Prefill pushes this many items before timing starts.
	Prefill int
}

// MixResult reports a mix run.
type MixResult struct {
	Throughput metrics.Throughput
	// Pushed/Popped count operations that returned Okay; Full/Empty count
	// boundary responses.
	Pushed, Popped, Full, Empty uint64
}

// RunMix drives the configured operation mix and reports throughput.
// Boundary responses (Full/Empty) count as completed operations — they
// are, per the specification — but are also tallied separately.
func RunMix(d Deque, cfg MixConfig) (MixResult, error) {
	if cfg.Workers < 1 || cfg.OpsPerWorker < 1 {
		return MixResult{}, fmt.Errorf("workload: Workers and OpsPerWorker must be ≥ 1")
	}
	for i := 0; i < cfg.Prefill; i++ {
		if d.PushRight(uint64(i)+1e9) != spec.Okay {
			return MixResult{}, fmt.Errorf("workload: prefill push %d failed", i)
		}
	}
	type counts struct{ pushed, popped, full, empty uint64 }
	results := make([]counts, cfg.Workers)

	// Pre-generate per-worker programs so the timed region contains only
	// deque operations.
	progs := make([][]uint8, cfg.Workers)
	for w := range progs {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
		prog := make([]uint8, cfg.OpsPerWorker)
		for i := range prog {
			push := rng.IntN(100) < cfg.PushPct
			left := rng.IntN(2) == 0
			if cfg.SplitEnds {
				left = w%2 == 0
			}
			switch {
			case push && left:
				prog[i] = 0
			case push:
				prog[i] = 1
			case left:
				prog[i] = 2
			default:
				prog[i] = 3
			}
		}
		progs[w] = prog
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labeled("mix", w, func() {
				// Counters live in locals for the duration of the loop: a write
				// into the shared results slice on every operation would both
				// cost a store on the measured path and false-share counter
				// cache lines between workers.
				var c counts
				base := uint64(w+1) << 32
				for i, op := range progs[w] {
					switch op {
					case 0:
						if d.PushLeft(base+uint64(i)) == spec.Okay {
							c.pushed++
						} else {
							c.full++
						}
					case 1:
						if d.PushRight(base+uint64(i)) == spec.Okay {
							c.pushed++
						} else {
							c.full++
						}
					case 2:
						if _, r := d.PopLeft(); r == spec.Okay {
							c.popped++
						} else {
							c.empty++
						}
					default:
						if _, r := d.PopRight(); r == spec.Okay {
							c.popped++
						} else {
							c.empty++
						}
					}
				}
				results[w] = c
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res MixResult
	for _, c := range results {
		res.Pushed += c.pushed
		res.Popped += c.popped
		res.Full += c.full
		res.Empty += c.empty
	}
	res.Throughput = metrics.Throughput{
		Ops:     uint64(cfg.Workers * cfg.OpsPerWorker),
		Elapsed: elapsed,
	}
	return res, nil
}

// StealConfig parameterizes a work-stealing run: a synthetic
// divide-and-conquer computation (a binary task tree of the given depth)
// executed by one owner per deque plus thieves, the scheduling pattern of
// Arora et al. [4] that motivates the paper's deques.
type StealConfig struct {
	// Workers is the number of worker goroutines, each owning one deque.
	Workers int
	// Depth is the task-tree depth; the computation has 2^Depth leaves.
	Depth int
	// Capacity bounds each worker's deque.
	Capacity int
	// Seed randomizes victim selection.
	Seed uint64
}

// stealCounts accumulates one worker's tallies.
type stealCounts struct{ leaves, steals uint64 }

// StealResult reports a work-stealing run.
type StealResult struct {
	Elapsed time.Duration
	// Leaves is the number of leaf tasks executed (must equal 2^Depth).
	Leaves uint64
	// Steals counts tasks obtained from another worker's deque.
	Steals uint64
}

// task encodes a subtree: depth in the low 8 bits, id above.  Valid tasks
// are non-zero because id ≥ 1.
func mkTask(id uint64, depth int) uint64 { return id<<8 | uint64(depth) }
func taskDepth(t uint64) int             { return int(t & 0xff) }
func taskID(t uint64) uint64             { return t >> 8 }

// RunSteal executes the task tree over general deques: owners push and pop
// on the right (LIFO, for locality, as in [4]), thieves pop on the left
// (FIFO, taking the largest subtrees).
func RunSteal(mk func() Deque, cfg StealConfig) (StealResult, error) {
	if cfg.Workers < 1 || cfg.Depth < 0 || cfg.Depth > 55 {
		return StealResult{}, fmt.Errorf("workload: bad steal config %+v", cfg)
	}
	deques := make([]Deque, cfg.Workers)
	for i := range deques {
		deques[i] = mk()
	}
	// Seed worker 0 with the root task.
	if deques[0].PushRight(mkTask(1, cfg.Depth)) != spec.Okay {
		return StealResult{}, fmt.Errorf("workload: cannot push root task")
	}

	results := make([]stealCounts, cfg.Workers)
	var pending int64 = 1 // tasks in deques or in hand, tracked atomically
	pendingAddr := &pending

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labeled("steal", w, func() {
				rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
				my := deques[w]
				c := &results[w]
				for {
					// Own work first (right end), else steal (left end).
					t, r := my.PopRight()
					if r != spec.Okay {
						if loadInt64(pendingAddr) == 0 {
							return
						}
						victim := rng.IntN(cfg.Workers)
						if victim == w {
							runtime.Gosched()
							continue
						}
						t, r = deques[victim].PopLeft()
						if r != spec.Okay {
							runtime.Gosched()
							continue
						}
						c.steals++
					}
					d := taskDepth(t)
					if d == 0 {
						c.leaves++
						addInt64(pendingAddr, -1)
						continue
					}
					id := taskID(t)
					// Split: push one child, keep executing the other by
					// pushing both and looping (children replace the parent).
					child1 := mkTask(2*id, d-1)
					child2 := mkTask(2*id+1, d-1)
					addInt64(pendingAddr, 2)
					for my.PushRight(child1) != spec.Okay {
						// Deque full: execute a task from our own right end
						// inline to make room, as a real scheduler would.
						if t2, r2 := my.PopRight(); r2 == spec.Okay {
							execInline(t2, c, pendingAddr)
						}
					}
					for my.PushRight(child2) != spec.Okay {
						if t2, r2 := my.PopRight(); r2 == spec.Okay {
							execInline(t2, c, pendingAddr)
						}
					}
					addInt64(pendingAddr, -1) // parent consumed
				}
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res StealResult
	res.Elapsed = elapsed
	for _, c := range results {
		res.Leaves += c.leaves
		res.Steals += c.steals
	}
	want := uint64(1) << uint(cfg.Depth)
	if res.Leaves != want {
		return res, fmt.Errorf("workload: executed %d leaves, want %d", res.Leaves, want)
	}
	return res, nil
}

// execInline runs a task tree depth-first without the deque, used only
// when a bounded deque is full.
func execInline(t uint64, c *stealCounts, pending *int64) {
	stack := []uint64{t}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := taskDepth(cur)
		if d == 0 {
			c.leaves++
			addInt64(pending, -1)
			continue
		}
		id := taskID(cur)
		addInt64(pending, 2)
		stack = append(stack, mkTask(2*id, d-1), mkTask(2*id+1, d-1))
		addInt64(pending, -1)
	}
}
