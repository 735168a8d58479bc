package arena

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The lane tests pin the per-end freelist and ledger contract: slots may
// be allocated on one lane and freed on the other, the summed ledger stays
// conserved, allocation falls back to the other lane before failing, and
// reuse-mode HighWater (slots carved) equals the peak of Live on any
// sequential history.

// roundTrips are the two ways a slot makes its round trip: by index
// through Alloc and Free, and by handle through Put and Take, as the
// deques use it.  get stores v in a fresh slot on lane l and returns a
// token for it; release frees the token's slot on lane l and returns the
// value it held.
var roundTrips = []struct {
	name    string
	get     func(a *Arena[uint64], l Lane, v uint64) (uint64, bool)
	release func(a *Arena[uint64], l Lane, tok uint64) (uint64, bool)
}{
	{"alloc-free",
		func(a *Arena[uint64], l Lane, v uint64) (uint64, bool) {
			idx, ok := a.Alloc(l)
			if ok {
				*a.Get(idx) = v
			}
			return uint64(idx), ok
		},
		func(a *Arena[uint64], l Lane, tok uint64) (uint64, bool) {
			v := *a.Get(uint32(tok))
			a.Free(l, uint32(tok))
			return v, true
		}},
	{"put-take", (*Arena[uint64]).Put, (*Arena[uint64]).Take},
}

// TestCrossLaneFIFOChurn allocates every slot on the right lane and frees
// it on the left, the traffic of a FIFO queue (push right, pop left).
// Every freed slot must be recycled, so the number of slots carved stays
// at the queue's peak depth however long the churn runs.
func TestCrossLaneFIFOChurn(t *testing.T) {
	const (
		depth  = 16
		rounds = 20000
	)
	for _, rt := range roundTrips {
		t.Run(rt.name, func(t *testing.T) {
			a := New[uint64](4*depth, WithBlockSize(8))
			var fifo []uint64
			next := uint64(0)
			for i := 0; i < rounds; i++ {
				if len(fifo) < depth {
					tok, ok := rt.get(a, Right, uint64(i))
					if !ok {
						t.Fatalf("round %d: allocation failed with %d live of cap %d", i, a.Live(), a.Cap())
					}
					fifo = append(fifo, tok)
					continue
				}
				v, ok := rt.release(a, Left, fifo[0])
				if !ok || v < next {
					t.Fatalf("round %d: released %d, %v; want a value ≥ %d", i, v, ok, next)
				}
				next = v + 1
				fifo = fifo[1:]
			}
			o := a.Occupancy()
			if err := o.Conserved(); err != nil {
				t.Fatal(err)
			}
			if o.Live != int64(len(fifo)) {
				t.Fatalf("Live = %d, want %d", o.Live, len(fifo))
			}
			if o.HighWater != depth {
				t.Fatalf("HighWater = %d slots carved, want the peak depth %d", o.HighWater, depth)
			}
		})
	}
}

// TestCrossLaneFIFOChurnConcurrent runs the FIFO pattern with a producer
// goroutine on the right lane and a consumer on the left.  A carve happens
// only with both freelists empty, when every carved slot is in the queue,
// held by the consumer, or in flight inside its release — so the carved
// count stays within depth+2.  The consumer checks that every value comes
// out in the order it went in.
func TestCrossLaneFIFOChurnConcurrent(t *testing.T) {
	const (
		depth  = 16
		rounds = 50000
	)
	for _, rt := range roundTrips {
		t.Run(rt.name, func(t *testing.T) {
			a := New[uint64](1024, WithBlockSize(16))
			q := make(chan uint64, depth)
			bad := make(chan string, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := uint64(0)
				for tok := range q {
					if v, ok := rt.release(a, Left, tok); (!ok || v != want) && len(bad) == 0 {
						bad <- fmt.Sprintf("released %d, %v; want %d", v, ok, want)
					}
					want++
				}
			}()
			for i := 0; i < rounds; i++ {
				tok, ok := rt.get(a, Right, uint64(i))
				if !ok {
					close(q)
					wg.Wait()
					t.Fatalf("round %d: allocation failed", i)
				}
				q <- tok
			}
			close(q)
			wg.Wait()
			close(bad)
			if msg, ok := <-bad; ok {
				t.Fatal(msg)
			}
			o := a.Occupancy()
			if err := o.Conserved(); err != nil {
				t.Fatal(err)
			}
			if o.Live != 0 {
				t.Fatalf("Live = %d after the queue drained", o.Live)
			}
			if o.HighWater > depth+2 {
				t.Fatalf("carved %d slots for a queue of depth %d", o.HighWater, depth)
			}
		})
	}
}

// TestAllocFallsBackToOtherLane exhausts the never-allocated region,
// frees every slot on the right lane, and checks that left-lane
// allocations take them all before reporting exhaustion.
func TestAllocFallsBackToOtherLane(t *testing.T) {
	const cap = 6
	a := New[int](cap, WithBlockSize(2))
	var idxs []uint32
	for i := 0; i < cap; i++ {
		idx, ok := a.Alloc(Left)
		if !ok {
			t.Fatalf("Alloc %d failed before capacity", i)
		}
		idxs = append(idxs, idx)
	}
	if _, ok := a.Alloc(Left); ok {
		t.Fatal("Alloc succeeded past capacity")
	}
	for _, idx := range idxs {
		a.Free(Right, idx)
	}
	seen := map[uint32]bool{}
	for i := 0; i < cap; i++ {
		idx, ok := a.Alloc(Left)
		if !ok {
			t.Fatalf("Alloc %d on the empty left lane failed with %d slots on the right lane", i, cap-i)
		}
		if seen[idx] {
			t.Fatalf("slot %d handed out twice", idx)
		}
		seen[idx] = true
	}
	if _, ok := a.Alloc(Right); ok {
		t.Fatal("Alloc succeeded with both lanes empty and the arena exhausted")
	}
	if err := a.Occupancy().Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestHighWaterIsPeakLive drives random sequential histories on random
// lanes, in both reclamation modes, and checks HighWater against the peak
// of Live the script itself tracks.
func TestHighWaterIsPeakLive(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := New[int](4096, WithBlockSize(16), WithReuse(reuse))
			var held []uint32
			peak := 0
			for i := 0; i < 2000; i++ {
				if len(held) > 0 && rng.Intn(100) < 48 {
					k := rng.Intn(len(held))
					a.Free(Lane(rng.Intn(2)), held[k])
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					continue
				}
				idx, ok := a.Alloc(Lane(rng.Intn(2)))
				if !ok {
					break // gc mode can exhaust the arena
				}
				held = append(held, idx)
				peak = max(peak, len(held))
			}
			o := a.Occupancy()
			if err := o.Conserved(); err != nil {
				t.Fatalf("reuse=%v seed %d: %v", reuse, seed, err)
			}
			if o.Live != int64(len(held)) {
				t.Fatalf("reuse=%v seed %d: Live = %d, want %d", reuse, seed, o.Live, len(held))
			}
			if o.HighWater != int64(peak) {
				t.Fatalf("reuse=%v seed %d: HighWater = %d, want peak Live %d", reuse, seed, o.HighWater, peak)
			}
		}
	}
}

// TestStaleHandleAcrossLanes has goroutines on both lanes allocate on
// their own lane and free on the other, so every slot keeps migrating
// between freelists.  A handle made before its slot was freed must never
// resolve again, however the slot is recycled; a held slot's handle must
// always resolve.
func TestStaleHandleAcrossLanes(t *testing.T) {
	const (
		workers = 4
		rounds  = 20000
		keep    = 32
	)
	a := New[uint64](64, WithBlockSize(8))
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l Lane) {
			defer wg.Done()
			stale := make([]uint64, 0, keep)
			for i := 0; i < rounds; i++ {
				idx, ok := a.Alloc(l)
				if !ok {
					continue
				}
				h := a.Handle(idx)
				if got, ok := a.Resolve(h); !ok || got != idx {
					errs <- "live handle failed to resolve"
					return
				}
				a.Free(l^1, idx)
				if len(stale) == keep {
					stale = stale[1:]
				}
				stale = append(stale, h)
				for _, s := range stale {
					if _, ok := a.Resolve(s); ok {
						errs <- "stale handle resolved after cross-lane recycling"
						return
					}
				}
			}
		}(Lane(w & 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := a.Occupancy().Conserved(); err != nil {
		t.Fatal(err)
	}
}
