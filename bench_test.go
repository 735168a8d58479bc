// Top-level benchmark suite: one benchmark family per experiment of
// EXPERIMENTS.md (B1–B8).  The paper reports no absolute numbers — its
// evaluation is a mechanical proof — so these benchmarks regenerate the
// qualitative performance claims instead:
//
//	B1  latency(read) < latency(CAS) < latency(DCAS)       (Section 2)
//	B2  two-end concurrency vs packed-indices and mutex     (Sections 1.1, 3)
//	B3  throughput across operation mixes and thread counts
//	B4  work-stealing: general DCAS deques vs ABP [4]
//	B5  array vs list representation cost
//	B6  DCAS emulation ablation (EndLock vs two-lock vs global lock)
//	B7  the optional-optimization ablation Section 3 calls for
//	B8  reclamation ablation (gc / reuse / eager; bulk allocation [24])
//
// BenchmarkArena prices the slot arena's Put/Take round trip under the
// public deques.
// BenchmarkSched races the scheduler's deque backends on the fib(16)
// fork-join tree.  End-to-end and per-layer speed claims rest on
// perfbench (BENCHMARK.json); these families are the per-experiment
// cells, run at -cpu 1,2.
package dcasdeque_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dcasdeque/deque"
	"dcasdeque/internal/arena"
	"dcasdeque/internal/baseline/greenwald"
	"dcasdeque/internal/baseline/mutexdeque"
	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/core/listdeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/workload"
	"dcasdeque/sched"
)

// --- B1: primitive latencies -------------------------------------------

func BenchmarkPrimitives(b *testing.B) {
	b.Run("Read", func(b *testing.B) {
		var l dcas.Loc
		l.Init(1)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += l.Load()
		}
		_ = sink
	})
	b.Run("AtomicCAS", func(b *testing.B) {
		// Raw hardware CAS, the baseline the paper assumes DCAS exceeds.
		var v atomic.Uint64
		for i := 0; i < b.N; i++ {
			v.CompareAndSwap(uint64(i), uint64(i+1))
		}
	})
	b.Run("LocCAS", func(b *testing.B) {
		var l dcas.Loc
		for i := 0; i < b.N; i++ {
			l.CAS(uint64(i), uint64(i+1))
		}
	})
	b.Run("DCAS/TwoLock", func(b *testing.B) {
		p := new(dcas.TwoLock)
		var x, y dcas.Loc
		for i := 0; i < b.N; i++ {
			p.DCAS(&x, &y, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
		}
	})
	b.Run("DCAS/GlobalLock", func(b *testing.B) {
		p := new(dcas.GlobalLock)
		var x, y dcas.Loc
		for i := 0; i < b.N; i++ {
			p.DCAS(&x, &y, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
		}
	})
	b.Run("DCASView/TwoLock", func(b *testing.B) {
		p := new(dcas.TwoLock)
		var x, y dcas.Loc
		for i := 0; i < b.N; i++ {
			p.DCASView(&x, &y, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
		}
	})
}

// --- shared helpers -----------------------------------------------------

// wordDeques returns fresh word-level deques for comparison benchmarks.
func wordDeques(capacity int) map[string]workload.Deque {
	return map[string]workload.Deque{
		"array":     arraydeque.New(capacity),
		"list":      listdeque.New(listdeque.WithMaxNodes(capacity*8 + 16)),
		"greenwald": greenwald.New(capacity, nil),
		"mutex":     mutexdeque.New(capacity),
	}
}

// --- B2: both-ends concurrency ------------------------------------------

// BenchmarkBothEnds runs one goroutine per end doing balanced push/pop
// pairs on its own end.  The paper's deques synchronize the two ends on
// disjoint locations; the Greenwald-style deque serializes every operation
// through the packed indices word, and the mutex serializes everything.
func BenchmarkBothEnds(b *testing.B) {
	for name, d := range wordDeques(1 << 12) {
		b.Run(name, func(b *testing.B) {
			// Ballast keeps the ends apart so they never conflict.
			for i := 0; i < 64; i++ {
				d.PushRight(uint64(i) + 5)
			}
			var wg sync.WaitGroup
			run := func(push func(uint64) spec.Result, pop func() (uint64, spec.Result), n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					push(uint64(i) + 5)
					pop()
				}
			}
			b.ResetTimer()
			wg.Add(2)
			go run(d.PushLeft, d.PopLeft, b.N/2)
			go run(d.PushRight, d.PopRight, b.N-b.N/2)
			wg.Wait()
		})
	}
}

// --- B3: operation mixes -------------------------------------------------

func BenchmarkMixes(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		for name := range wordDeques(1 << 10) {
			name := name
			b.Run(name+"/w="+itoa(workers), func(b *testing.B) {
				d := wordDeques(1 << 10)[name]
				per := b.N/workers + 1
				_, err := workload.RunMix(d, workload.MixConfig{
					Workers:      workers,
					OpsPerWorker: per,
					PushPct:      50,
					Seed:         uint64(workers),
					Prefill:      64,
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- B4: work stealing ----------------------------------------------------

func BenchmarkWorkStealing(b *testing.B) {
	const (
		workers = 4
		depth   = 12
		cap     = 1 << 10
	)
	cases := map[string]func() (workload.StealResult, error){
		"array": func() (workload.StealResult, error) {
			return workload.RunSteal(func() workload.Deque { return arraydeque.New(cap) },
				workload.StealConfig{Workers: workers, Depth: depth, Capacity: cap, Seed: 1})
		},
		"list": func() (workload.StealResult, error) {
			return workload.RunSteal(func() workload.Deque {
				return listdeque.New(listdeque.WithMaxNodes(cap * 8))
			}, workload.StealConfig{Workers: workers, Depth: depth, Capacity: cap, Seed: 1})
		},
		"mutex": func() (workload.StealResult, error) {
			return workload.RunSteal(func() workload.Deque { return mutexdeque.New(cap) },
				workload.StealConfig{Workers: workers, Depth: depth, Capacity: cap, Seed: 1})
		},
		"abp": func() (workload.StealResult, error) {
			return workload.RunStealABP(workload.StealConfig{Workers: workers, Depth: depth, Capacity: cap, Seed: 1})
		},
	}
	for name, run := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Leaves != 1<<depth {
					b.Fatalf("leaves = %d", res.Leaves)
				}
			}
			b.ReportMetric(float64(uint64(b.N)<<depth)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// --- B5: array vs list representation -------------------------------------

func BenchmarkArrayVsList(b *testing.B) {
	b.Run("array/fifo", func(b *testing.B) {
		d := arraydeque.New(1 << 10)
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list-reuse/fifo", func(b *testing.B) {
		d := listdeque.New(listdeque.WithMaxNodes(1 << 10))
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list-gc/fifo", func(b *testing.B) {
		// gc mode never recycles: size the arena to the benchmark.
		d := listdeque.New(listdeque.WithNodeReuse(false), listdeque.WithMaxNodes(b.N+16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("array/lifo", func(b *testing.B) {
		d := arraydeque.New(1 << 10)
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopRight()
		}
	})
	b.Run("list-reuse/lifo", func(b *testing.B) {
		d := listdeque.New(listdeque.WithMaxNodes(1 << 10))
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopRight()
		}
	})
}

// --- B6: DCAS emulation ablation -------------------------------------------

func BenchmarkDCASProviders(b *testing.B) {
	mk := map[string]func() workload.Deque{
		"array/endlock": func() workload.Deque { return arraydeque.New(1 << 10) },
		"array/twolock": func() workload.Deque {
			return arraydeque.New(1<<10, arraydeque.WithProvider(new(dcas.TwoLock)))
		},
		"array/global": func() workload.Deque {
			return arraydeque.New(1<<10, arraydeque.WithProvider(new(dcas.GlobalLock)))
		},
		"list/twolock": func() workload.Deque { return listdeque.New() },
		"list/global": func() workload.Deque {
			return listdeque.New(listdeque.WithProvider(new(dcas.GlobalLock)))
		},
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			d := f()
			_, err := workload.RunMix(d, workload.MixConfig{
				Workers:      4,
				OpsPerWorker: b.N/4 + 1,
				PushPct:      50,
				SplitEnds:    true,
				Seed:         9,
				Prefill:      64,
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
	// Every array provider on the disjoint-ends loop of the array core: a
	// provider whose lock state is one shared word re-couples the two
	// ends, which only shows with two processors (-cpu 2).
	for _, p := range []struct {
		name string
		prov dcas.Provider
	}{
		{"twolock", new(dcas.TwoLock)},
		{"global", new(dcas.GlobalLock)},
		{"endlock", new(dcas.EndLock)},
	} {
		b.Run("ends2/"+p.name, func(b *testing.B) {
			benchCoreEnds2(b, arraydeque.New(1<<10, arraydeque.WithProvider(p.prov)))
		})
	}
}

// benchCoreEnds2 is benchEnds2 on the array core: b.N push+pop pairs on
// each end from two goroutines, after a prefill of 512.
func benchCoreEnds2(b *testing.B, d *arraydeque.Deque) {
	for i := uint64(1); i <= 512; i++ {
		d.PushRight(i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			d.PushLeft(uint64(i) + 1)
			d.PopLeft()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 1)
			d.PopRight()
		}
	}()
	wg.Wait()
}

// --- B7: the paper's optional-optimization ablation --------------------------

// BenchmarkOptimizations measures the array deque with and without the
// line-7 index recheck and the lines 17-18 strong-DCAS early returns —
// "Experimentation would be required to determine whether either or both
// of these code fragments should be included" (Section 3).
func BenchmarkOptimizations(b *testing.B) {
	configs := map[string][]arraydeque.Option{
		"strong+recheck": nil,
		"strong":         {arraydeque.WithRecheckIndex(false)},
		"weak+recheck":   {arraydeque.WithStrongDCAS(false)},
		"weak":           {arraydeque.WithStrongDCAS(false), arraydeque.WithRecheckIndex(false)},
	}
	for name, opts := range configs {
		b.Run(name+"/contended", func(b *testing.B) {
			// Capacity 2 keeps every operation at a boundary, where the
			// optimizations matter.
			d := arraydeque.New(2, opts...)
			_, err := workload.RunMix(d, workload.MixConfig{
				Workers:      4,
				OpsPerWorker: b.N/4 + 1,
				PushPct:      50,
				Seed:         11,
			})
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(name+"/uncontended", func(b *testing.B) {
			d := arraydeque.New(1<<10, opts...)
			for i := 0; i < b.N; i++ {
				d.PushRight(uint64(i) + 5)
				d.PopRight()
			}
		})
	}
}

// --- B8: reclamation ablation -------------------------------------------------

func BenchmarkReclamation(b *testing.B) {
	b.Run("list/reuse-lazy", func(b *testing.B) {
		d := listdeque.New()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list/reuse-eager", func(b *testing.B) {
		d := listdeque.New(listdeque.WithEagerDelete(true))
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list/gc", func(b *testing.B) {
		d := listdeque.New(listdeque.WithNodeReuse(false), listdeque.WithMaxNodes(b.N+16))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list/dummy-nodes", func(b *testing.B) {
		d := listdeque.NewDummy()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	b.Run("list/lfrc", func(b *testing.B) {
		d := listdeque.NewLFRC()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopLeft()
		}
	})
	// Allocator-level ablation of bulk allocation (Hat Trick [24]): shared
	// freelists versus per-goroutine caches.  Parallel goroutines take the
	// two lanes in turn, as the two ends of a deque would.
	b.Run("arena/shared", func(b *testing.B) {
		a := arena.New[uint64](1 << 10)
		var next atomic.Uint32
		b.RunParallel(func(pb *testing.PB) {
			l := arena.Lane(next.Add(1) & 1)
			for pb.Next() {
				if idx, ok := a.Alloc(l); ok {
					a.Free(l, idx)
				}
			}
		})
	})
	b.Run("arena/bulk-cache", func(b *testing.B) {
		a := arena.New[uint64](1 << 10)
		var next atomic.Uint32
		b.RunParallel(func(pb *testing.PB) {
			c := arena.NewCache(a, arena.Lane(next.Add(1)&1), 32)
			defer c.Drain()
			for pb.Next() {
				if idx, ok := c.Alloc(); ok {
					c.Free(idx)
				}
			}
		})
	})
}

// BenchmarkArena prices the slot arena's element round trip, Put then
// Take, which every public push+pop pair pays on top of its DCASes.
// roundtrip runs it on one lane; ends2 runs two goroutines, one per lane,
// as the two ends of a deque would, and with the lanes on disjoint cache
// lines it stays near roundtrip on two processors.  slot-B/elem is the
// arena's footprint per element: the value plus its freelist link and
// generation.
func BenchmarkArena(b *testing.B) {
	b.Run("roundtrip", func(b *testing.B) {
		a := arena.New[int](1 << 10)
		for i := 0; i < b.N; i++ {
			if h, ok := a.Put(arena.Right, i); ok {
				a.Take(arena.Right, h)
			}
		}
		b.ReportMetric(float64(a.SlotBytes()), "slot-B/elem")
	})
	b.Run("ends2", func(b *testing.B) {
		a := arena.New[int](1 << 10)
		var wg sync.WaitGroup
		for _, l := range []arena.Lane{arena.Left, arena.Right} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if h, ok := a.Put(l, i); ok {
						a.Take(l, h)
					}
				}
			}()
		}
		wg.Wait()
		b.ReportMetric(float64(a.SlotBytes()), "slot-B/elem")
	})
}

// --- scheduler backends ------------------------------------------------------

// BenchmarkSched runs one fib(16) fork-join tree per iteration on a
// scheduler built with each deque backend, workers = GOMAXPROCS.
func BenchmarkSched(b *testing.B) {
	for _, bk := range []struct {
		name string
		opt  sched.Option
	}{
		{"chaselev", sched.WithChaseLev()},
		{"array", sched.WithArrayDeques()},
		{"list", sched.WithListDeques()},
		{"mutex", sched.WithMutexDeques()},
	} {
		b.Run("fib16/"+bk.name, func(b *testing.B) {
			s := sched.New(bk.opt)
			defer func() {
				if err := s.Shutdown(context.Background()); err != nil {
					b.Fatal(err)
				}
			}()
			for i := 0; i < b.N; i++ {
				if _, err := workload.RunSchedFib(s, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- public API overhead --------------------------------------------------

// benchEnds2 runs b.N push+pop pairs on each end of d from two
// goroutines, one per end, after a prefill of 512 that keeps the ends
// from meeting.  Both goroutines wait at a ready barrier (yielding
// until both have arrived) before their loops, so neither loop starts
// before the other goroutine is running.
func benchEnds2(b *testing.B, d *deque.Array[int]) {
	for i := 0; i < 512; i++ {
		d.PushRight(i)
	}
	var wg sync.WaitGroup
	var ready atomic.Int32
	arrive := func() {
		ready.Add(1)
		for ready.Load() < 2 {
			runtime.Gosched()
		}
	}
	wg.Add(2)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		arrive()
		for i := 0; i < b.N; i++ {
			d.PushLeft(i)
			d.PopLeft()
		}
	}()
	go func() {
		defer wg.Done()
		arrive()
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	}()
	wg.Wait()
}

func BenchmarkPublicAPI(b *testing.B) {
	b.Run("Array[int]", func(b *testing.B) {
		d := deque.NewArray[int](1 << 10)
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	// The paper's disjoint-ends property through the public wrapper: two
	// goroutines, one per end of one Array[int], each running b.N
	// push+pop pairs.  Each end's excursion is one element against a
	// prefill of 512, so the ends never meet; with the ends (and their
	// arena lanes) on disjoint cache lines, ns/op on two processors stays
	// near the single-goroutine Array[int] figure.
	b.Run("Array[int]/ends2", func(b *testing.B) {
		benchEnds2(b, deque.NewArray[int](1<<10))
	})
	b.Run("List[int]", func(b *testing.B) {
		d := deque.NewList[int]()
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	b.Run("Mutex[int]", func(b *testing.B) {
		d := deque.NewMutex[int](1 << 10)
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	b.Run("ChaseLev[int]", func(b *testing.B) {
		d := deque.NewChaseLev[int]()
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	// Latency-enabled twins: the same loop with WithLatency, pricing the
	// enabled path (two operation stamps + histogram records per operation) for
	// the benchguard head gate.  The budget is documented in EXPERIMENTS.md
	// (LATOBS); the disabled path is priced by perfbench's deque-ends
	// workload.
	b.Run("Array[int]/lat", func(b *testing.B) {
		d := deque.NewArray[int](1<<10, deque.WithLatency())
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	// The two-end loop with latency telemetry on: the counters, the DCAS
	// attribution lanes and the histograms are per end, so the head gate
	// holds it near the single-goroutine Array[int]/lat figure.
	b.Run("Array[int]/ends2/lat", func(b *testing.B) {
		benchEnds2(b, deque.NewArray[int](1<<10, deque.WithLatency()))
	})
	b.Run("ChaseLev[int]/lat", func(b *testing.B) {
		d := deque.NewChaseLev[int](deque.WithLatency())
		for i := 0; i < b.N; i++ {
			d.PushRight(i)
			d.PopRight()
		}
	})
	b.Run("core-array-words", func(b *testing.B) {
		d := arraydeque.New(1 << 10)
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopRight()
		}
	})
	b.Run("core-chaselev-words", func(b *testing.B) {
		d := chaselev.New()
		for i := 0; i < b.N; i++ {
			d.PushRight(uint64(i) + 5)
			d.PopRight()
		}
	})
}
