package dcas

import (
	"runtime"
	"sync/atomic"
)

// spinLock is a word-sized test-and-test-and-set (TATAS) lock.  It
// replaces sync.Mutex as the per-location lock of the DCAS emulation: a
// futex-parking mutex is the wrong primitive for critical sections of a
// few nanoseconds, because the first preemption inside one builds a convoy
// of parked goroutines and every subsequent release then pays a wake-up.
//
// The fast path is a single CAS.  The slow path spins reading the lock
// word (so contending processors hit their local cache copy instead of
// hammering the bus with CAS attempts — the "test-and-test-and-set" part)
// under the package's bounded exponential backoff, and degrades to
// runtime.Gosched so that on a single-P schedule the lock holder is always
// able to run; a spinning waiter can never starve it.
//
// The lock word also carries the owning location's lock-ordering token
// (see Loc), so a Loc is two words, not three.  Every acquire and release
// names the word's key — its token shifted above the lock bit, with or
// without that bit (Loc.lockKey) — so the fast paths stay a single CAS
// and a plain store.  A Loc's token is assigned before its lock is first
// taken and only ever installed into the all-zero word (unassigned and
// unlocked), so it never changes under a holder.  A spinLock used on its
// own carries token 0 and key 0.
//
// The zero value is an unlocked lock with no token.
type spinLock struct {
	//dequevet:packed locked:1 id:63
	state atomic.Uint64
}

// The lock bit and the token's offset in the lock word.
const (
	lockedBit = 1
	idShift   = 1
)

// Lock acquires the lock of a word with key k, spinning (with backoff and
// yields) until it is available.
func (s *spinLock) Lock(k uint64) {
	if !s.state.CompareAndSwap(k&^lockedBit, k|lockedBit) {
		s.lockSlow(k)
	}
}

// lockSlow is the contended path, kept out of Lock so the fast path stays
// inlinable.
//
//go:noinline
func (s *spinLock) lockSlow(k uint64) {
	bo := lockBackoff.Start()
	for {
		// Test loop: wait for the word to read unlocked before attempting
		// another CAS.
		for s.state.Load()&lockedBit != 0 {
			bo.Wait()
		}
		if s.state.CompareAndSwap(k&^lockedBit, k|lockedBit) {
			return
		}
		bo.Wait()
	}
}

// TryLock acquires the lock of a word with key k if it is immediately
// available.
func (s *spinLock) TryLock(k uint64) bool {
	return s.state.Load()&lockedBit == 0 && s.state.CompareAndSwap(k&^lockedBit, k|lockedBit)
}

// Unlock releases the lock of a word with key k.  The atomic store
// publishes (release-orders) every write made inside the critical
// section.
func (s *spinLock) Unlock(k uint64) {
	s.state.Store(k &^ lockedBit)
}

// setID installs token id unless one is already assigned, and returns the
// word's key afterwards.  It runs before the lock is first taken, so an
// unassigned word is never held.
func (s *spinLock) setID(id uint64) uint64 {
	if s.state.CompareAndSwap(0, id<<idShift) {
		return id << idShift
	}
	return s.state.Load()
}

// lockBackoff is the backoff policy for the lock slow path.  It is
// initialized once at startup: on a multi-P schedule waiters spin briefly
// before yielding; with GOMAXPROCS=1 spinning can never observe a release
// (the holder is not running), so waiters yield immediately.
var lockBackoff = func() *BackoffPolicy {
	p := &BackoffPolicy{MinSpins: 16, MaxSpins: 1 << 10}
	if runtime.GOMAXPROCS(0) == 1 {
		p.MaxSpins = 0
	}
	return p
}()
