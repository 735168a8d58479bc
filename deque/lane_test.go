package deque

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestArrayEndsNoSpuriousFull churns both ends of a full-capacity Array
// from two goroutines, one per end, biased so that elements mostly cross
// the deque (pushed on one end, popped on the other) and their slots are
// allocated on one arena lane and freed on the other.  A shared credit
// pool admits a push only when the deque has room for it, so every ErrFull
// would be spurious: an allocator that does not recycle across lanes
// exhausts its arena and fails here.
func TestArrayEndsNoSpuriousFull(t *testing.T) {
	const (
		capacity = 64
		rounds   = 40000
	)
	d := NewArray[int](capacity)
	for i := 0; i < capacity; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("prefill %d: %v", i, err)
		}
	}
	var credits atomic.Int64 // free capacity not yet claimed by a push
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func(left bool, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// The left goroutine mostly pops, the right one mostly pushes:
			// FIFO traffic from right to left.
			pushPct := 70
			if left {
				pushPct = 30
			}
			for i := 0; i < rounds; i++ {
				if rng.Intn(100) < pushPct {
					if credits.Add(-1) < 0 {
						credits.Add(1) // full: nothing to push into
						runtime.Gosched()
						continue
					}
					var err error
					if left {
						err = d.PushLeft(i)
					} else {
						err = d.PushRight(i)
					}
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				var err error
				if left {
					_, err = d.PopLeft()
				} else {
					_, err = d.PopRight()
				}
				switch {
				case err == nil:
					credits.Add(1)
				case !errors.Is(err, ErrEmpty):
					errs <- err
					return
				}
			}
		}(e == 0, int64(e+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("push with room in the deque failed: %v", err)
	}
	m := d.Mem()
	if err := m.Conserved(); err != nil {
		t.Fatal(err)
	}
	// Every carve happens with both freelists empty, when each carved slot
	// holds an element, a push in flight, or a pop not yet freed.
	if m.Slots.HighWater > capacity+2 {
		t.Fatalf("slots carved = %d for a deque of capacity %d", m.Slots.HighWater, capacity)
	}
}
