// Package dcas provides the double-compare-and-swap (DCAS) primitive of
// Figure 1 of "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000),
// together with the shared-memory location type the deque algorithms
// operate on.
//
// The paper assumes DCAS is executed atomically "either through hardware
// support, through a non-blocking software emulation, or via a blocking
// software emulation".  No shipping hardware provides DCAS, so this package
// supplies blocking software emulations behind the Provider interface:
//
//   - TwoLock: the general fine-grained emulation, and the list deques'
//     default.  It locks only the two addressed locations using
//     per-location word-sized TATAS spinlocks (deadlock-free via a fixed
//     lock order).  Operations on disjoint location pairs proceed in
//     parallel, which preserves the paper's central claim that the two
//     deque ends can be accessed concurrently, and the critical section —
//     two loads and at most two stores — is short enough that spinning
//     beats parking by a wide margin.
//   - EndLock (endlock.go): the array deque's default, specialized to
//     pairs whose first location is an end index; three locked
//     instructions per DCAS instead of TwoLock's six.
//   - GlobalLock: a single mutex per provider instance.  All DCAS
//     operations serialize; used as an ablation baseline.
//
// Single-location reads and writes remain individually atomic (sync/atomic)
// and are linearizable with respect to DCAS: a DCAS validates both old
// values and performs both stores while holding the locations' locks, so
// another DCAS can never observe or interleave with a half-applied DCAS.
// A plain Load may observe one store of an in-flight DCAS before the other;
// the deque algorithms tolerate this because every decision derived from
// plain loads is re-validated by a subsequent DCAS, except for reads the
// paper itself proves safe from single-location atomicity (e.g. observing
// the immutable sentinel values).
//
// Both forms of Figure 1 are provided: DCAS (boolean result) and DCASView
// (returns an atomic view of the two locations whether or not the
// comparison succeeded), mirroring the value-argument and
// pointer-to-old-value-argument variants.
package dcas

import (
	"sync"
	"sync/atomic"
)

// Loc is a single shared-memory location holding one 64-bit word.  It is
// the unit on which Read, Write, CAS and DCAS operate.  The zero value is a
// valid location holding 0.
//
// Loc corresponds to a memory word L in the paper's machine model
// (Section 2): Read_i(L), Write_i(L, v) and DCAS_i(L1, L2, ...).
//
// Layout: the value word leads so that the hot load path dereferences the
// Loc's own address; the lock word, which also carries the ordering token,
// follows.  A Loc is 16 bytes — deliberately unpadded, because aggregates
// embed many of them (array cells, list nodes) and choose their own
// spacing; see PaddedLoc for the padded form.
type Loc struct {
	v atomic.Uint64
	// lk is the location's lock.  Its word also holds a process-wide
	// unique lock-ordering token, 0 meaning "not yet assigned".  Go
	// provides no portable, GC-stable address order, so an explicit total
	// order over locations is maintained instead.  Deque constructors
	// assign tokens eagerly with AssignIDs, so on the DCAS hot path
	// lockKey is a single atomic load plus an untaken branch; the lazy
	// assignment below exists only for zero-value Locs that were never
	// registered (and runs once per location ever — arena-recycled nodes
	// keep their token across incarnations).
	lk spinLock
}

// locIDs hands out lock-ordering tokens; 0 means "not yet assigned".
var locIDs atomic.Uint64

// lockKey returns the location's lock word as loaded, assigning a token
// first if it has none: the token above the lock bit, plus the lock bit
// if the lock was held at the load.  The key is what the spinLock methods
// take, and it orders locations exactly as their tokens do — distinct
// tokens put two keys at least two apart, so the lock bit cannot reorder
// them.  A word reads 0 only while unassigned (a location's lock is only
// ever taken through its key).  The steady-state path is the single load;
// assignment is pushed out of line.
func (l *Loc) lockKey() uint64 {
	w := l.lk.state.Load()
	if w == 0 {
		w = l.assignID()
	}
	return w
}

// assignID gives the location a token on first use and returns its key.
//
//go:noinline
func (l *Loc) assignID() uint64 { return l.lk.setID(locIDs.Add(1)) }

// AssignIDs eagerly assigns lock-ordering tokens to the given locations.
// Constructors call it on every location they create (end counters, array
// cells, sentinels) so that token assignment — a contended global counter
// plus a CAS — never runs inside an operation's DCAS.  Idempotent.
//
// One call reserves one block of consecutive tokens, and locs[i] gets the
// block's i-th token (if it has none yet).  The spacing between a
// constructor's locations is therefore fixed by argument position, and a
// concurrent constructor cannot shift it: the telemetry sink's DCAS lanes
// (telemetry.DCASLane) rely on this to put a deque's two end anchors in
// different lanes.
func AssignIDs(locs ...*Loc) {
	unassigned := false
	for _, l := range locs {
		unassigned = unassigned || l.lk.state.Load() == 0
	}
	if !unassigned {
		return // recycled nodes keep their tokens: no global counter traffic
	}
	n := uint64(len(locs))
	base := locIDs.Add(n) - n
	for i, l := range locs {
		if l.lk.state.Load() == 0 {
			l.lk.setID(base + 1 + uint64(i))
		}
	}
}

// ID returns the location's process-wide ordering token, assigning one on
// first use.  The token also picks the lane a DCAS is counted in
// (telemetry.DCASLane): it survives arena recycling and is never reused,
// so a location counts into the same lane for a deque's whole life.
func (l *Loc) ID() uint64 { return l.lockKey() >> idShift }

// Load atomically reads the location (Read_i(L) in the paper's model).
func (l *Loc) Load() uint64 { return l.v.Load() }

// Store atomically writes the location (Write_i(L, v) in the paper's
// model).  It acquires the location's lock so that it linearizes with any
// in-flight DCAS touching the same location.
func (l *Loc) Store(v uint64) {
	k := l.lockKey()
	l.lk.Lock(k)
	l.v.Store(v)
	l.lk.Unlock(k)
}

// Init writes the location without acquiring its lock.  It must only be
// used before the location is shared (e.g. while constructing a deque or
// initializing a freshly allocated node that no other thread can reach).
func (l *Loc) Init(v uint64) { l.v.Store(v) }

// RawCAS is a single-instruction compare-and-swap of the value word,
// bypassing the per-location lock.  It is linearizable only against
// providers that never take the per-location locks — in practice EndLock,
// whose three-step protocol the array deque inlines at its hot call sites
// (the call overhead is a measurable fraction of a three-instruction
// DCAS).  Under any lock-taking provider it would race with a held lock;
// do not mix.
func (l *Loc) RawCAS(old, new uint64) bool { return l.v.CompareAndSwap(old, new) }

// RawStore is the raw store matching RawCAS, with the same restriction.
func (l *Loc) RawStore(v uint64) { l.v.Store(v) }

// CAS atomically compares the location with old and, if equal, stores new.
// It acquires the location's lock so that it linearizes with DCAS
// operations on the same location.  (Baselines that never mix CAS with
// DCAS, such as the ABP deque, use raw sync/atomic instead.)
func (l *Loc) CAS(old, new uint64) bool {
	k := l.lockKey()
	l.lk.Lock(k)
	ok := l.v.Load() == old
	if ok {
		l.v.Store(new)
	}
	l.lk.Unlock(k)
	return ok
}

// Provider supplies the two DCAS forms of Figure 1.  Implementations must
// guarantee that the comparison and both stores take effect atomically with
// respect to every other Provider operation and every Loc method.
type Provider interface {
	// DCAS is the weak form of Figure 1: if *a1 == o1 and *a2 == o2, it
	// stores n1 and n2 and reports true; otherwise it changes nothing and
	// reports false.  a1 and a2 must be distinct locations.
	DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool

	// DCASView is the strong form of Figure 1 (third and fourth arguments
	// passed as pointers in the paper): it behaves like DCAS but always
	// returns an atomic view (v1, v2) of the two locations taken at the
	// linearization point, whether the operation succeeded or failed.
	DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool)
}

// TwoLock is the general DCAS emulation.  It locks exactly the two
// addressed locations, so DCAS operations on disjoint pairs of locations
// run concurrently.  Deadlock between two overlapping DCAS operations is
// avoided by acquiring the spinlocks in the fixed total order given by
// each location's ordering token.  Waiters spin with bounded exponential
// backoff and degrade to scheduler yields, so the lock holder is never
// starved of CPU even on a single-P schedule.
//
// The zero value is ready to use.
type TwoLock struct{}

// lockPair acquires the locks of both locations, whose keys are k1 and
// k2, in token order.  On return both locks are held; the caller must
// release both.
//
//dequevet:lockpath-transfers a1.lk a2.lk
func (p *TwoLock) lockPair(a1, a2 *Loc, k1, k2 uint64) {
	if k1 > k2 {
		a1, a2, k1, k2 = a2, a1, k2, k1
	}
	a1.lk.Lock(k1)
	a2.lk.Lock(k2)
}

// DCAS implements the weak form of Figure 1.
func (p *TwoLock) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	if a1 == a2 {
		panic("dcas: DCAS requires two distinct locations")
	}
	k1, k2 := a1.lockKey(), a2.lockKey()
	p.lockPair(a1, a2, k1, k2)
	ok := a1.v.Load() == o1 && a2.v.Load() == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	a2.lk.Unlock(k2)
	a1.lk.Unlock(k1)
	return ok
}

// DCASView implements the strong form of Figure 1.
func (p *TwoLock) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool) {
	if a1 == a2 {
		panic("dcas: DCASView requires two distinct locations")
	}
	k1, k2 := a1.lockKey(), a2.lockKey()
	p.lockPair(a1, a2, k1, k2)
	v1 = a1.v.Load()
	v2 = a2.v.Load()
	ok = v1 == o1 && v2 == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	a2.lk.Unlock(k2)
	a1.lk.Unlock(k1)
	return v1, v2, ok
}

// GlobalLock is a coarse DCAS emulation: every operation serializes on one
// mutex.  It is the simplest correct emulation and serves as the ablation
// baseline for measuring what fine-grained locking buys (experiment B6).
//
// The zero value is ready to use.  A GlobalLock value must not be copied
// after first use.
//
// Note that plain Loc.Store and Loc.CAS acquire per-location locks, not the
// global mutex; GlobalLock is nevertheless correct for the deque algorithms
// because they never Store a shared location after construction, but mixed
// use of Loc.CAS and GlobalLock DCAS on the same location is not
// linearizable and must be avoided.
type GlobalLock struct {
	mu sync.Mutex
}

// DCAS implements the weak form of Figure 1 under the provider's single mutex.
func (p *GlobalLock) DCAS(a1, a2 *Loc, o1, o2, n1, n2 uint64) bool {
	if a1 == a2 {
		panic("dcas: DCAS requires two distinct locations")
	}
	p.mu.Lock()
	ok := a1.v.Load() == o1 && a2.v.Load() == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.mu.Unlock()
	return ok
}

// DCASView implements the strong form of Figure 1 under the provider's
// single mutex.
func (p *GlobalLock) DCASView(a1, a2 *Loc, o1, o2, n1, n2 uint64) (v1, v2 uint64, ok bool) {
	if a1 == a2 {
		panic("dcas: DCASView requires two distinct locations")
	}
	p.mu.Lock()
	v1 = a1.v.Load()
	v2 = a2.v.Load()
	ok = v1 == o1 && v2 == o2
	if ok {
		a1.v.Store(n1)
		a2.v.Store(n2)
	}
	p.mu.Unlock()
	return v1, v2, ok
}

// Default returns the provider a list deque is constructed with when no
// other is chosen: a fresh TwoLock.  (The array deque defaults to EndLock,
// whose contract only its anchored pairs meet.)
func Default() Provider { return new(TwoLock) }

// Compile-time interface checks.
var (
	_ Provider = (*TwoLock)(nil)
	_ Provider = (*GlobalLock)(nil)
)
