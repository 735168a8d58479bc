// Fixture with deliberate lock-discipline violations, modeled on the
// spinlock and inlined end-lock shapes of internal/dcas and
// internal/core/arraydeque.
package a

import (
	"sync"
	"sync/atomic"
)

// EndLockBit marks an anchor word as locked, as in internal/dcas.
const EndLockBit uint64 = 1 << 63

type spinLock struct{ state atomic.Uint32 }

func (s *spinLock) Lock() {
	for !s.state.CompareAndSwap(0, 1) {
	}
}
func (s *spinLock) TryLock() bool { return s.state.CompareAndSwap(0, 1) }
func (s *spinLock) Unlock()       { s.state.Store(0) }

type box struct {
	lk spinLock
	v  atomic.Uint64
}

func (b *box) leakOnError(fail bool) int {
	b.lk.Lock()
	if fail {
		return -1 // want `return leaves lock b\.lk held`
	}
	b.lk.Unlock()
	return 0
}

func (b *box) divergent(cond bool) {
	if cond {
		b.lk.Lock() // want `lock b\.lk is held on only one branch`
	}
	b.lk.Unlock()
}

func (b *box) leakAtEnd() {
	b.lk.Lock() // want `lock b\.lk acquired here is still held when the function returns`
	b.v.Add(1)
}

func (b *box) blockingInWindow(ch chan int, work func() int) int {
	b.lk.Lock()
	v := <-ch   // want `channel receive inside spin window`
	v += work() // want `call to work inside spin window`
	b.lk.Unlock()
	return v
}

func (b *box) allocInWindow(n int) []int {
	b.lk.Lock()
	s := make([]int, n) // want `allocation \(make\) inside spin window`
	b.lk.Unlock()
	return s
}

func (b *box) tryDiscard() {
	b.lk.TryLock() // want `conditional acquire with discarded result`
	b.lk.Unlock()
}

func (b *box) anchorLeak(o uint64) bool {
	if b.v.CompareAndSwap(o, o|EndLockBit) {
		return true // want `return leaves lock b\.v held`
	}
	return false
}

func (b *box) loopLeak(n int) {
	for i := 0; i < n; i++ {
		b.lk.Lock() // want `lock b\.lk acquired inside the loop body is still held when the iteration ends`
	}
}

var mu sync.Mutex

// Parking locks are balance-checked too, even though they are exempt
// from the spin-window blocking check.
func mutexLeak(fail bool) int {
	mu.Lock()
	if fail {
		return 1 // want `return leaves lock mu held`
	}
	mu.Unlock()
	return 0
}
