package dcas

import (
	"runtime"
	"sync/atomic"
)

// This file provides the contention management of the lock slow paths —
// the spinlock's and EndLock's wait for a marked anchor: bounded
// exponential backoff with jitter.  The deque algorithms' own retry
// loops retry a lost DCAS at once, as the paper's pseudocode does.
//
// A waiter that re-reads a held lock word in a tight loop keeps the
// word's line bouncing between caches and, on a single-P schedule,
// burns the time slice the holder needs.  The standard remedy from the
// practical non-blocking literature (Sundell & Tsigas's single-word-CAS
// deques, the ABP work-stealing line) is to wait a randomized,
// exponentially growing, bounded interval before looking again.

// backoffPolicy configures the backoff behaviour.  A policy is
// immutable after creation and may be shared by any number of
// goroutines; each wait derives its own backoff cursor from it with
// start.
type backoffPolicy struct {
	// minSpins is the initial spin bound (iterations of a pause loop).
	minSpins uint32
	// maxSpins caps the exponentially growing spin bound.  Once the bound
	// exceeds maxSpins — or if maxSpins is 0, from the first wait — the
	// waiter yields the processor (runtime.Gosched) instead of spinning.
	// maxSpins = 0 is the right setting for GOMAXPROCS=1, where spinning
	// burns the time slice the lock holder needs.
	maxSpins uint32
}

// lockBackoff is the backoff policy for the lock slow paths.  It is
// initialized once at startup: on a multi-P schedule waiters spin briefly
// before yielding; with GOMAXPROCS=1 spinning can never observe a release
// (the holder is not running), so waiters yield immediately.
var lockBackoff = func() *backoffPolicy {
	p := &backoffPolicy{minSpins: 16, maxSpins: 1 << 10}
	if runtime.GOMAXPROCS(0) == 1 {
		p.maxSpins = 0
	}
	return p
}()

// backoffSeed perturbs each cursor's jitter stream so concurrent
// goroutines do not back off in lockstep (which would make them re-collide
// on retry — the exact pathology jitter exists to break).
var backoffSeed atomic.Uint64

// backoff is one wait's cursor: the current bound and jitter state.  It
// lives on the waiter's stack, so the backoff is per-goroutine by
// construction, as the contention-management literature prescribes.
type backoff struct {
	pol *backoffPolicy
	cur uint32 // current spin bound; doubles per wait up to pol.maxSpins
	rng uint64 // xorshift64 jitter state, never zero once started
}

// start derives a fresh cursor.  It does no atomic work: the jitter
// stream is only seeded (one shared-counter increment) on the first wait
// that actually spins.
func (p *backoffPolicy) start() backoff {
	return backoff{pol: p, cur: p.minSpins}
}

// nextRand steps the xorshift64 jitter generator, seeding it on first use.
func (b *backoff) nextRand() uint64 {
	x := b.rng
	if x == 0 {
		x = backoffSeed.Add(0x9e3779b97f4a7c15) // golden-ratio increments
		x ^= x << 13
		x ^= x >> 7
		if x == 0 {
			x = 1
		}
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	b.rng = x
	return x
}

// wait blocks the caller for the cursor's current backoff interval and
// advances the bound: a jittered spin of [cur/2, cur] pause iterations
// while the bound is within maxSpins, a scheduler yield beyond it.  It
// reports the pause iterations it spun, 0 for a yield.
func (b *backoff) wait() uint32 {
	if n := b.cur; n > 0 && n <= b.pol.maxSpins {
		spins := n/2 + uint32(b.nextRand())%(n-n/2+1) // jitter: [n/2, n]
		for i := uint32(0); i < spins; i++ {
			cpuRelax()
		}
		b.cur = n * 2
		return spins
	}
	runtime.Gosched()
	return 0
}

// cpuRelax is one iteration of the pause loop.  Go exposes no PAUSE/YIELD
// intrinsic; an empty no-inline call is a few cycles of pipeline work the
// compiler cannot eliminate, which is all the spin loop needs.
//
//go:noinline
func cpuRelax() {}
