package dcas

import "sync/atomic"

// BitLock is a contention-engineered DCAS emulation: a word-sized lock
// *table*.  Every location hashes (by its lock-ordering token) to one bit
// of a single 64-bit mask, and a DCAS acquires the two locations' bits in
// one compare-and-swap — all or nothing.  Compared with TwoLock this
// halves the locked read-modify-write operations per DCAS (one CAS to
// acquire both locks, one AND to release both) and needs no lock-ordering
// protocol at all: because both bits are taken in a single atomic step
// there is no hold-and-wait, hence no deadlock, by construction.
//
// Operations on disjoint location pairs still proceed concurrently as long
// as their bits differ (two independent pairs collide on a bit with
// probability ≈ 4/64).  The trade-off is spatial: all acquisitions target
// one word, so on large machines the mask line ping-pongs between cores
// where TwoLock's per-location locks would stay core-local.  BitLock
// therefore targets the low-core-count and oversubscribed regimes, TwoLock
// the spatially-partitioned one; BenchmarkDCASProviders/ends2 measures
// both on the array deque's two ends.
//
// The zero value is ready to use.  A BitLock value must not be copied
// after first use.
//
// Like GlobalLock — and unlike TwoLock — BitLock does not cooperate with
// the per-location locks taken by Loc.Store and Loc.CAS, so algorithms
// that mix those operations with DCAS on the same locations (the lfrc
// deque's reference counts) must use TwoLock instead.  The plain deque
// algorithms never Store or CAS a shared location after construction and
// are sound under BitLock.
type BitLock struct {
	mask atomic.Uint64

	// Backoff, when non-nil, replaces the package default policy used
	// while waiting for held bits.
	Backoff *BackoffPolicy
}

// bitOf maps a location to its lock bit.  The lock-ordering token is used
// rather than the address because bit identity must be stable for the
// location's lifetime and Go does not guarantee GC-stable addresses.
func bitOf(l *Loc) uint64 { return 1 << (l.lockKey() >> idShift & 63) }

// acquire takes ownership of every bit in bits, waiting while any of them
// is held.  The fast path is a single test-and-set: an uncontended mask is
// fully clear, so CAS(0, bits) succeeds without even a prior load.
func (p *BitLock) acquire(bits uint64) {
	if p.mask.CompareAndSwap(0, bits) {
		return
	}
	p.acquireSlow(bits)
}

//go:noinline
func (p *BitLock) acquireSlow(bits uint64) {
	pol := p.Backoff
	if pol == nil {
		pol = lockBackoff
	}
	bo := pol.Start()
	for {
		old := p.mask.Load()
		if old&bits == 0 {
			if p.mask.CompareAndSwap(old, old|bits) {
				return
			}
			continue // a disjoint holder moved other bits; retry at once
		}
		bo.Wait() // our bits are held: back off
	}
}

// release clears every bit in bits with a single atomic AND.
func (p *BitLock) release(bits uint64) { p.mask.And(^bits) }

// DCAS implements the weak form of Figure 1 under the two locations' bits.
func (p *BitLock) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	if a1 == a2 {
		panic("dcas: DCAS requires two distinct locations")
	}
	bits := bitOf(a1) | bitOf(a2)
	p.acquire(bits)
	ok := a1.v.Load() == o1 && a2.v.Load() == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.release(bits)
	return ok
}

// DCASView implements the strong form of Figure 1 under the two locations'
// bits.
func (p *BitLock) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool) {
	if a1 == a2 {
		panic("dcas: DCASView requires two distinct locations")
	}
	bits := bitOf(a1) | bitOf(a2)
	p.acquire(bits)
	v1 = a1.v.Load()
	v2 = a2.v.Load()
	ok = v1 == o1 && v2 == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.release(bits)
	return v1, v2, ok
}

var _ Provider = (*BitLock)(nil)
