package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The credit protocol's regressions.  Every completed task is banked as
// one unit of its worker's credit and returned to the life word in one
// subtraction when the worker next misses work, so the life word's
// pending count is unfinished tasks plus all banked credit.  A unit
// that is never returned, or returned twice, leaves the word off zero
// forever: a join-mode scheduler never reads idle, and a drain never
// reaches quiescence.

// parkedWorkers counts the ids on the idle stack.  The walk reads only
// atomics, so it is race-free; it is exact once the scheduler is idle.
func parkedWorkers(s *Scheduler) int {
	n := 0
	for id := uint32(s.idle.head.Load()); id != 0 && n <= len(s.workers); id = s.idle.next[id-1].Load() {
		n++
	}
	return n
}

// TestCreditReturnedAfterJoin: once a join-mode fib tree has returned
// and both workers have parked, every banked credit has come back to
// the life word.  A parked worker ran nothing since it flushed, and its
// idle-stack push orders that flush before the test's reads.
func TestCreditReturnedAfterJoin(t *testing.T) {
	s := New(WithWorkers(2), WithChaseLev())
	defer shutdownOK(t, s)
	var wg sync.WaitGroup
	var fib func(n int) Task
	fib = func(n int) Task {
		return func(w *Worker) {
			defer wg.Done()
			if n < 2 {
				return
			}
			wg.Add(2)
			w.Spawn(fib(n - 1))
			w.Spawn(fib(n - 2))
		}
	}
	wg.Add(1)
	if err := s.Submit(fib(16)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for parkedWorkers(s) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never both parked after the tree; life = %#x", s.life.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if p := s.life.Load() & pendingMask; p != 0 {
		t.Fatalf("life pending = %d with both workers parked, want 0", p)
	}
	for _, w := range s.workers {
		if w.credit != 0 {
			t.Fatalf("parked worker %d holds %d credit", w.id, w.credit)
		}
	}
}

// TestCreditDrainRacesSpawnTree: Shutdown's drain starts while a deep
// spawn tree is still growing, and single-task steals spread the tree
// so that tasks finish on workers other than the one that spawned them
// — the spawner paid the unit, a different worker banks it.  Every task
// must run exactly once and the word must end at exactly drainBit.  The
// root holds its worker after spawning until some task has run
// elsewhere, so the steal the test is about always happens.
func TestCreditDrainRacesSpawnTree(t *testing.T) {
	for name, backend := range backends() {
		t.Run(name, func(t *testing.T) {
			s := New(WithWorkers(4), backend, WithStealBatch(1))
			const depth = 11
			var ran [1 << (depth + 1)]atomic.Int32
			var foreign atomic.Int64
			var node func(id, spawner int) Task
			node = func(id, spawner int) Task {
				return func(w *Worker) {
					ran[id].Add(1)
					if w.ID() != spawner {
						foreign.Add(1)
					}
					if id >= 1<<depth {
						return
					}
					w.Spawn(node(2*id, w.ID()))
					w.Spawn(node(2*id+1, w.ID()))
					if id == 1 {
						// The root's own count is the first foreign run;
						// wait, bounded, for a thief to add the second.
						for deadline := time.Now().Add(10 * time.Second); foreign.Load() < 2 && time.Now().Before(deadline); {
							runtime.Gosched()
						}
					}
					// Let woken thieves run even at one processor.
					runtime.Gosched()
				}
			}
			if err := s.Submit(node(1, -1)); err != nil {
				t.Fatal(err)
			}
			shutdownOK(t, s) // drain mode: Shutdown is the join
			for id := 1; id < len(ran); id++ {
				if c := ran[id].Load(); c != 1 {
					t.Fatalf("task %d ran %d times", id, c)
				}
			}
			// The root's spawner is -1, so it always counts; require more.
			if foreign.Load() < 2 {
				t.Fatalf("no task finished away from its spawner (%d)", foreign.Load())
			}
			if l := s.life.Load(); l != drainBit {
				t.Fatalf("life = %#x after the drain, want drainBit", l)
			}
		})
	}
}

// TestCreditInlineSpawnDrains: with one-slot worker deques and a
// one-slot injector, Spawn runs children inline, so credit is banked
// and spent inside a Spawn call on the same worker; the drain must
// still reach quiescence with every task run once.
func TestCreditInlineSpawnDrains(t *testing.T) {
	s := New(WithWorkers(2), WithArrayDeques(), WithDequeCapacity(1), WithInjectorCapacity(1))
	const depth = 10
	var ran [1 << (depth + 1)]atomic.Int32
	var inline atomic.Int64
	var node func(id, parent int, spawning *atomic.Bool) Task
	node = func(id, parent int, spawning *atomic.Bool) Task {
		return func(w *Worker) {
			ran[id].Add(1)
			// The parent's worker is busy inside Spawn: running on it now
			// means running inline.
			if w.ID() == parent && spawning.Load() {
				inline.Add(1)
			}
			if id >= 1<<depth {
				return
			}
			var mine atomic.Bool
			mine.Store(true)
			w.Spawn(node(2*id, w.ID(), &mine))
			w.Spawn(node(2*id+1, w.ID(), &mine))
			mine.Store(false)
		}
	}
	var none atomic.Bool
	if err := s.Submit(node(1, -1, &none)); err != nil {
		t.Fatal(err)
	}
	shutdownOK(t, s)
	for id := 1; id < len(ran); id++ {
		if c := ran[id].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", id, c)
		}
	}
	if inline.Load() == 0 {
		t.Fatal("no spawn ran inline; the overflow path went unexercised")
	}
	if l := s.life.Load(); l != drainBit {
		t.Fatalf("life = %#x after the drain, want drainBit", l)
	}
}
