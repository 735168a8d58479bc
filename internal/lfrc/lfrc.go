// Package lfrc implements Lock-Free Reference Counting, the methodology
// of Detlefs, Martin, Moir and Steele, "Lock-free reference counting"
// (PODC 2001) — reference [12] of the paper, cited as the way "these
// algorithms can be transformed into equivalent ones that do not depend
// on garbage collection".
//
// The paper's deque algorithms assume a garbage collector; LFRC replaces
// it with per-object reference counts maintained lock-free.  The central
// difficulty is loading a pointer from shared memory and incrementing the
// referent's count *atomically* — a thread that increments after loading
// may touch an object that was freed in between.  LFRC's insight is that
// DCAS solves this directly:
//
//	LFRCLoad: loop {
//	    a  := *A                  // read the pointer
//	    rc := a->rc               // read the count
//	    if DCAS(A, &a->rc, a, rc, a, rc+1) { return a }   // A still points
//	}                                                     // at a: safe +1
//
// The DCAS validates that A still references a at the instant the count
// rises, so the count can never be raised on a freed object.
//
// The rest of the operation set follows the paper: AddRef (a thread that
// already owns a counted reference may increment without DCAS), Release
// (decrement; on zero, release the object's outgoing references and free
// it), and CAS (replace a shared reference, transferring counts).
//
// A reference count here covers both shared-memory references and live
// local references, exactly as in [12].  Objects live in the same
// index-addressed arena as the deque nodes; a Ref packs (generation,
// index) so that stale references are detectable in tests.
package lfrc

import (
	"fmt"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/telemetry"
)

// Ref is a counted reference: the arena handle word (generation<<32 |
// index+1), or Nil.  Refs are stored in shared dcas.Loc cells and compared
// by DCAS, so a recycled object (new generation) can never be confused
// with its previous incarnation.
type Ref = uint64

// Nil is the null reference.
const Nil Ref = 0

// poolLane is the arena lane every pool allocation and free uses.  A pool
// serves no deque end, so all its traffic shares one lane.
const poolLane = arena.Left

// object wraps a value with its reference count.
type object[T any] struct {
	rc  dcas.Loc
	val T
}

// Pool is an LFRC-managed allocation pool of T objects.  All methods are
// safe for concurrent use.
type Pool[T any] struct {
	ar   *arena.Arena[object[T]]
	prov dcas.Provider
	// onRelease is called exactly once, when an object's count reaches
	// zero, so the holder type can release the object's outgoing
	// references (by calling the passed release function on each).  May be
	// nil for leaf objects.
	onRelease func(*T, func(Ref))
	// tel, when non-nil, receives reference-count transfer events
	// (increments, decrements, reclamations).  Disabled costs a nil check.
	tel *telemetry.Sink
}

// SetTelemetry attaches a sink that receives the pool's count-transfer
// events, or detaches it when s is nil.  Call before sharing the pool;
// the field is not synchronized.
func (p *Pool[T]) SetTelemetry(s *telemetry.Sink) { p.tel = s }

// refInc records one count increment when telemetry is attached.
func (p *Pool[T]) refInc() {
	if p.tel != nil {
		p.tel.RefInc()
	}
}

// refDec records one count decrement when telemetry is attached.
func (p *Pool[T]) refDec() {
	if p.tel != nil {
		p.tel.RefDec()
	}
}

// refFree records one reclamation when telemetry is attached.
func (p *Pool[T]) refFree() {
	if p.tel != nil {
		p.tel.RefFree()
	}
}

// NewPool returns a pool with the given capacity.  onRelease, if non-nil,
// is invoked when an object dies, with a callback for releasing the
// references the dead object holds.
func NewPool[T any](capacity int, prov dcas.Provider, onRelease func(*T, func(Ref))) *Pool[T] {
	if prov == nil {
		prov = dcas.Default()
	}
	return &Pool[T]{
		ar:        arena.New[object[T]](capacity),
		prov:      prov,
		onRelease: onRelease,
	}
}

// Live reports the number of live objects (for leak checking).
func (p *Pool[T]) Live() int { return p.ar.Live() }

// Occupancy returns the pool's allocation ledger: live/free/retired object
// counts, the live high-water mark, and slab footprint.  Quiescent
// snapshots pass the arena's structural audit; see
// arena.Occupancy.Conserved.
func (p *Pool[T]) Occupancy() arena.Occupancy { return p.ar.Occupancy() }

// New allocates an object holding v with reference count 1 (the caller's
// local reference).  ok is false if the pool is exhausted.
func (p *Pool[T]) New(v T) (Ref, bool) {
	idx, ok := p.ar.Alloc(poolLane)
	if !ok {
		return Nil, false
	}
	obj := p.ar.Get(idx)
	obj.val = v
	obj.rc.Init(1)
	return p.ar.Handle(idx), true
}

// Get returns the object's value for reading/writing.  The caller must
// own a counted reference to r.  It panics on a stale reference — the
// use-after-free detector for tests.
func (p *Pool[T]) Get(r Ref) *T {
	idx, ok := p.ar.Resolve(r)
	if !ok {
		panic(fmt.Sprintf("lfrc: stale or nil reference %#x", r))
	}
	return &p.ar.Get(idx).val
}

// resolve maps a ref to its object, panicking on staleness.
func (p *Pool[T]) resolve(r Ref) (*object[T], uint32) {
	idx, ok := p.ar.Resolve(r)
	if !ok {
		panic(fmt.Sprintf("lfrc: stale or nil reference %#x", r))
	}
	return p.ar.Get(idx), idx
}

// AddRef increments r's count.  The caller must already own a counted
// reference (so the object cannot die concurrently), which is why no DCAS
// is needed — this is the paper's LFRCCopy fast path.
func (p *Pool[T]) AddRef(r Ref) {
	if r == Nil {
		return
	}
	obj, _ := p.resolve(r)
	for {
		rc := obj.rc.Load()
		if rc == 0 {
			panic("lfrc: AddRef on dead object")
		}
		if obj.rc.CAS(rc, rc+1) {
			p.refInc()
			return
		}
	}
}

// Release decrements r's count; the caller's reference is consumed.  When
// a count reaches zero the object's outgoing references are released (via
// onRelease) and its storage returns to the pool.  Chains release
// iteratively, so releasing the last reference to a long linked structure
// does not recurse.
func (p *Pool[T]) Release(r Ref) {
	work := []Ref{r}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if cur == Nil {
			continue
		}
		obj, idx := p.resolve(cur)
		for {
			rc := obj.rc.Load()
			if rc == 0 {
				panic("lfrc: Release on dead object")
			}
			if !obj.rc.CAS(rc, rc-1) {
				continue
			}
			p.refDec()
			if rc-1 == 0 {
				// Last reference: collect outgoing references, then free.
				if p.onRelease != nil {
					p.onRelease(&obj.val, func(child Ref) {
						work = append(work, child)
					})
				}
				var zero T
				obj.val = zero
				p.ar.Free(poolLane, idx)
				p.refFree()
			}
			break
		}
	}
}

// Load performs LFRCLoad: it reads the reference in loc and atomically
// increments the referent's count, returning an owned reference (or Nil).
// This is the operation that REQUIRES DCAS: the count may only rise while
// loc still points at the object.
func (p *Pool[T]) Load(loc *dcas.Loc) Ref {
	for {
		r := loc.Load()
		if r == Nil {
			return Nil
		}
		idx, ok := p.ar.Resolve(r)
		if !ok {
			// The object was freed and possibly recycled after our read;
			// loc must have changed — retry.  (Reading the count through a
			// stale ref would be unsound; resolution checks the
			// generation first.)
			continue
		}
		obj := p.ar.Get(idx)
		rc := obj.rc.Load()
		if rc == 0 {
			continue // dying; loc must have moved on
		}
		if p.prov.DCAS(loc, &obj.rc, r, rc, r, rc+1) {
			p.refInc()
			return r
		}
	}
}

// Store performs LFRCStore: it installs r in loc (taking a new count for
// the location) and releases the location's previous reference.  The
// caller keeps its own reference to r.  Store must not race with CAS on
// the same location unless the caller tolerates lost updates; the deque
// and stack structures use CAS exclusively after initialization.
func (p *Pool[T]) Store(loc *dcas.Loc, r Ref) {
	p.AddRef(r)
	for {
		old := loc.Load()
		if loc.CAS(old, r) {
			if old != Nil {
				p.Release(old)
			}
			return
		}
	}
}

// CAS performs LFRCCAS: if loc holds old, replace it with new.  On
// success the location's reference moves from old to new: new's count is
// incremented and old's released.  The caller must own counted references
// to both old and new (its own references are not consumed).
func (p *Pool[T]) CAS(loc *dcas.Loc, old, new Ref) bool {
	p.AddRef(new) // anticipate the location's reference
	if loc.CAS(old, new) {
		if old != Nil {
			p.Release(old) // the location dropped its reference to old
		}
		return true
	}
	p.Release(new) // undo the anticipation
	return false
}
