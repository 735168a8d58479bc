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

// TestEngineeredOptions exercises the contention-engineering options —
// the anchored EndLock DCAS and retry backoff — through the public
// constructors under concurrent load.
func TestEngineeredOptions(t *testing.T) {
	t.Run("ArrayEndLockBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64, WithEndLockDCAS(), WithBackoff(BackoffConfig{})))
	})
	t.Run("ListEndLockFallsBackToTwoLock", func(t *testing.T) {
		// List deques cannot satisfy EndLock's anchored-pair contract; the
		// option must leave them on the default per-location TwoLock, not
		// misbehave.
		cfg, _ := configure([]Option{WithEndLockDCAS()})
		if p := listProvider(cfg); p != nil {
			t.Fatalf("list provider under WithEndLockDCAS = %T, want the default", p)
		}
		if _, ok := dcas.Default().(*dcas.TwoLock); !ok {
			t.Fatalf("default provider is %T, want *dcas.TwoLock", dcas.Default())
		}
		hammer(t, NewList[int](WithEndLockDCAS(), WithBackoff(BackoffConfig{})))
	})
	t.Run("ArrayExplicitBackoff", func(t *testing.T) {
		hammer(t, NewArray[int](64,
			WithBackoff(BackoffConfig{MinSpins: 4, MaxSpins: 256})))
	})
	t.Run("ListDummyBackoff", func(t *testing.T) {
		hammer(t, NewList[int](WithDummyNodes(), WithBackoff(BackoffConfig{})))
	})
	t.Run("ListLFRCBackoff", func(t *testing.T) {
		// WithEndLockDCAS must be ignored for LFRC too (reference counts
		// need the per-location emulation); the combination must be safe.
		hammer(t, NewList[int](WithLFRC(), WithEndLockDCAS(),
			WithBackoff(BackoffConfig{})))
	})
}
