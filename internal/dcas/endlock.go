package dcas

// EndLock is the cheapest DCAS emulation in this package, specialized to
// the access pattern of the array deque: every DCAS pairs an always-first
// "anchor" location (an end index) with a second location (a cell).  It
// exploits two structural facts the general emulations cannot assume:
//
//   - anchor values are small (array indices), so the word's top bit is
//     free to serve as an in-word lock mark;
//   - a location is either always the anchor or always the second of a
//     pair, never both, so a mark on an anchor can never be mistaken for
//     (or hidden inside) a second-location value.
//
// A DCAS then needs no lock table at all.  It marks the anchor with a
// single compare-and-swap of o1 for o1|EndLockBit — which simultaneously
// validates the anchor's expected value and locks it — arbitrates the
// second location with a direct compare-and-swap of o2 for n2, and
// commits the anchor's new value (which also unlocks it) with one store:
//
//	success:            CAS(a1) + CAS(a2) + Store(a1)   3 locked RMWs
//	a2 mismatch:        CAS(a1) + CAS(a2) + Store(a1)   3 locked RMWs
//	a1 mismatch:        CAS(a1)                         1 locked RMW
//
// against six for the lock-pair emulations — and the common failure mode
// of a contended retry loop, "the end moved under me", is detected by
// the very CAS that would have locked it.  Because each anchor is its
// own lock, operations on the two deque ends share no lock state
// whatsoever.
//
// Atomicity: a successful DCAS linearizes at the a2 CAS.  The anchor is
// marked throughout, so its logical value is pinned at o1 while a2 is
// validated and written; any DCAS on a pair containing the anchor waits
// (the mark makes its a1 CAS fail), and any DCAS on a pair sharing only
// the second location is serialized by the a2 CAS itself — of two racing
// operations expecting o2, exactly one succeeds.
//
// Deadlock-freedom: a DCAS holds at most one mark and acquires nothing
// while holding it, so there is no hold-and-wait.
//
// Contract (checked where cheap, otherwise documented): o1 and n1 must
// not use EndLockBit; a1 must be written only through this provider's
// DCAS after publication; a location used as a1 must never appear as a2
// of a concurrent pair.  The array deque satisfies all three — ends are
// indices in [0, n), are mutated only by DCAS, and are never a pair's
// second location.  The list deques do not (their link words appear on
// both sides of pairs), so they keep TwoLock.
//
// The strong form's failure view is atomic exactly when v1 == o1 — the
// case where the view was taken under the anchor's mark.  When v1 != o1
// the two components may be from different instants; the deque algorithms
// only consult the view after re-checking v1 against the anchor they read
// (Figure 2 line 17), so a non-simultaneous view with v1 != o1 is never
// acted on.  Readers of an anchor must strip EndLockBit (the deque's end
// loads do); a masked read of a marked anchor yields the pinned o1, which
// is always a value the anchor legitimately held.
//
// The zero value is ready to use; the provider itself is stateless.
type EndLock struct {
	// Backoff, when non-nil, replaces the package default policy used
	// while waiting for a marked anchor.
	Backoff *BackoffPolicy
}

// EndLockBit is the in-word lock mark EndLock sets on a1 while a DCAS is
// in flight.  Anchor values must never use this bit: the word is a
// 63-bit anchor value with the lock mark packed above it.
//
//dequevet:packed anchor:63 endlock:1
const EndLockBit uint64 = 1 << 63

// mark pins a1 at o1, or reports a1's current logical value and false.
// On true, a1 is marked and must be unmarked by storing its next value.
//
//dequevet:lockpath-transfers a1.v
func (p *EndLock) mark(a1 *Loc, o1 uint64) (uint64, bool) {
	if a1.v.CompareAndSwap(o1, o1|EndLockBit) {
		return o1, true
	}
	return p.markSlow(a1, o1)
}

//dequevet:lockpath-transfers a1.v
//go:noinline
func (p *EndLock) markSlow(a1 *Loc, o1 uint64) (uint64, bool) {
	pol := p.Backoff
	if pol == nil {
		pol = lockBackoff
	}
	bo := pol.Start()
	for {
		cur := a1.v.Load()
		if cur&^EndLockBit != o1 {
			// The anchor's logical value differs: a genuine DCAS failure,
			// no waiting required.
			return cur &^ EndLockBit, false
		}
		// Marked by an in-flight DCAS that read the same anchor value:
		// wait for it to commit or restore, then re-attempt.
		bo.Wait()
		if a1.v.CompareAndSwap(o1, o1|EndLockBit) {
			return o1, true
		}
	}
}

// DCAS implements the weak form of Figure 1 for anchored pairs.
func (p *EndLock) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	if a1 == a2 {
		panic("dcas: DCAS requires two distinct locations")
	}
	if (o1|n1)&EndLockBit != 0 {
		panic("dcas: EndLock anchor values must not use EndLockBit")
	}
	if _, ok := p.mark(a1, o1); !ok {
		return false
	}
	if a2.v.CompareAndSwap(o2, n2) {
		a1.v.Store(n1) // commit and unmark
		return true
	}
	a1.v.Store(o1) // restore and unmark
	return false
}

// DCASView implements the strong form of Figure 1 for anchored pairs.
// See the type comment for the failure view's atomicity contract.
func (p *EndLock) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool) {
	if a1 == a2 {
		panic("dcas: DCASView requires two distinct locations")
	}
	if (o1|n1)&EndLockBit != 0 {
		panic("dcas: EndLock anchor values must not use EndLockBit")
	}
	v1, ok = p.mark(a1, o1)
	if !ok {
		return v1, a2.v.Load(), false
	}
	if a2.v.CompareAndSwap(o2, n2) {
		a1.v.Store(n1)
		return o1, o2, true
	}
	v2 = a2.v.Load() // atomic with the pinned o1: taken under the mark
	a1.v.Store(o1)
	return o1, v2, false
}

var _ Provider = (*EndLock)(nil)
