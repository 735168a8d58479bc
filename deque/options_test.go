package deque

import (
	"sync"
	"testing"

	"dcasdeque/internal/dcas"
)

// hammer drives a deque from both ends concurrently and checks the popped
// multiset matches the pushed one.
func hammer(t *testing.T, d Deque[int]) {
	t.Helper()
	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	popped := make([]map[int]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		popped[w] = make(map[int]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			left := w%2 == 0
			for i := 0; i < perWorker; i++ {
				v := w*perWorker + i + 1
				for {
					var err error
					if left {
						err = d.PushLeft(v)
					} else {
						err = d.PushRight(v)
					}
					if err == nil {
						break
					}
				}
				for {
					var got int
					var err error
					if left {
						got, err = d.PopRight()
					} else {
						got, err = d.PopLeft()
					}
					if err == nil {
						popped[w][got]++
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, m := range popped {
		for _, n := range m {
			total += n
		}
	}
	if total != workers*perWorker {
		t.Fatalf("popped %d values, want %d", total, workers*perWorker)
	}
}

// TestEngineeredOptions exercises the contention-engineered
// configurations — the array deque's default EndLock DCAS and the list
// deques' TwoLock — through the public constructors under concurrent
// load.  The *Backoff cells once added retry backoff; the deques now
// retry a lost DCAS at once, as the paper does, and the cells keep their
// names with the option dropped.
func TestEngineeredOptions(t *testing.T) {
	t.Run("ArrayEndLockBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64))
	})
	t.Run("ListEndLockFallsBackToTwoLock", func(t *testing.T) {
		// List deques cannot satisfy EndLock's anchored-pair contract;
		// they stay on the default per-location TwoLock.
		if _, ok := dcas.Default().(*dcas.TwoLock); !ok {
			t.Fatalf("default provider is %T, want *dcas.TwoLock", dcas.Default())
		}
		hammer(t, NewList[int]())
	})
	t.Run("ArrayExplicitBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64))
	})
	t.Run("ListDummyBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithDummyNodes()))
	})
	t.Run("ListLFRCBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithLFRC()))
	})
}
