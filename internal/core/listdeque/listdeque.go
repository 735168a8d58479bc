// Package listdeque implements the linked-list-based non-blocking deque of
// Section 4 of "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000) —
// "the first non-blocking unbounded-memory deque implementation".
//
// The deque is a doubly-linked list of nodes between two fixed sentinel
// nodes SL and SR.  Every node holds two pointer words and a value word;
// the value word holds null, sentL, sentR, or a user value.  A pop is
// split into two atomic steps:
//
//  1. logical deletion — a DCAS replaces the node's value with null and
//     simultaneously sets a "deleted" bit packed into the sentinel's
//     inward pointer (Figure 12);
//  2. physical deletion — deleteRight/deleteLeft (Figures 17/34) splice
//     the null node out of the chain and clear the bit (Figure 15).
//
// If the popping processor stalls between the steps, the next operation on
// that side performs the physical deletion, so no processor can block
// another: "the actual deletion from the list can then be performed by the
// next push or next pop operation on that side of the deque".
//
// The trickiest case is a deque holding exactly two logically deleted
// nodes, attacked by deleteLeft and deleteRight concurrently (Figure 16):
// both try DCASes that overlap on a sentinel pointer, so exactly one wins,
// and the loser re-reads and finishes the remaining deletion.
//
// Pointer words pack (node index, reuse tag, deleted bit) into one
// 64-bit DCAS-able word — see package tagptr.  Nodes live in an arena
// (package arena); with reuse disabled the arena reproduces the paper's
// garbage-collection assumption exactly (no address ever recycled), and
// with reuse enabled the tags make recycled nodes distinguishable.
//
// The left-side operations mirror Figures 32–34.  (The paper's appendix
// contains two evident typos which the symmetric construction resolves:
// Figure 32 line 4 reads oldL for oldR, and Figure 33 line 10 points the
// new node's L at SR instead of SL.)
package listdeque

import (
	"dcasdeque/internal/arena"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/tagptr"
	"dcasdeque/internal/telemetry"
)

// Distinguished value words (Section 4: "three distinguished values
// (called null, sentL, and sentR) that can be stored in the value field of
// a node but are never requested to be pushed onto the deque").  Dummy is
// the fourth distinguished word used only by the DummyDeque variant
// (Figure 10, footnote 4), which replaces the deleted bit with "delete-bit"
// indirection nodes.
const (
	Null  uint64 = 0
	SentL uint64 = 1
	SentR uint64 = 2
	Dummy uint64 = 3
	// MinUserValue is the smallest pushable value word.
	MinUserValue uint64 = 4
)

// node is one list cell: L and R pointer words and a value word.
type node struct {
	l, r dcas.Loc
	val  dcas.Loc
}

// Deque is a linked-list-based unbounded deque.  All methods are safe for
// concurrent use.  Create with New.
type Deque struct {
	prov dcas.Provider
	ar   *arena.Arena[node]

	sl, sr uint32 // sentinel arena indices
	slPtr  tagptr.Word
	srPtr  tagptr.Word

	eagerDelete bool
	tel         *telemetry.Sink
	lat         bool // tel non-nil with latency enabled: stamp operations
}

// Option configures a Deque.
type Option func(*options)

type options struct {
	prov        dcas.Provider
	maxNodes    int
	reuse       bool
	eagerDelete bool
	tel         *telemetry.Sink
}

// WithProvider selects the DCAS emulation (default: a fresh dcas.TwoLock).
func WithProvider(p dcas.Provider) Option {
	return func(o *options) { o.prov = p }
}

// WithMaxNodes bounds the node arena.  The specification is unbounded, but
// any real allocator can fail; when it does, push returns Full, matching
// the paper's footnote: "In the actual implementation, the push operations
// return 'full' in the case that the memory allocator fails."  The default
// is 1<<20 nodes.
func WithMaxNodes(n int) Option {
	return func(o *options) { o.maxNodes = n }
}

// WithNodeReuse selects the reclamation mode.  false (gc mode) never
// recycles node storage, reproducing the paper's GC assumption; true
// recycles physically deleted nodes through the arena freelist, relying on
// the reuse tags in pointer words for ABA protection.  Default true.
func WithNodeReuse(on bool) Option {
	return func(o *options) { o.reuse = on }
}

// WithTelemetry attaches a telemetry sink: every completed operation is
// counted against its end, with the two-phase deletion protocol visible
// as separate logical- and physical-delete counters.  The default — no
// sink — costs each operation one inlined nil check.  Shared by New,
// NewDummy and NewLFRC.
func WithTelemetry(t *telemetry.Sink) Option {
	return func(o *options) { o.tel = t }
}

// WithEagerDelete makes a successful pop call the physical-deletion
// procedure itself before returning, per the paper's footnote 6: "the
// popRight operation could also call the deleteRight procedure before
// returning v."  Default false: physical deletion is left to the next
// operation on that side, as in the main text.
func WithEagerDelete(on bool) Option {
	return func(o *options) { o.eagerDelete = on }
}

// New returns an empty deque: the two sentinels pointing at each other
// with both deleted bits false (Figure 9, top).
func New(opts ...Option) *Deque {
	o := options{maxNodes: 1 << 20, reuse: true}
	for _, f := range opts {
		f(&o)
	}
	if o.prov == nil {
		o.prov = dcas.Default()
	}
	if o.maxNodes < 3 {
		panic("listdeque: need at least 3 nodes (two sentinels and an item)")
	}
	ar := arena.New[node](o.maxNodes, arena.WithReuse(o.reuse))
	// The deque's always-hot words are the sentinels' inward pointers
	// (SL.r and SR.l).  The arena's lanes carve from opposite ends of its
	// index space, so allocating each sentinel on its own end's lane puts
	// those words at opposite ends of the arena — in any arena of four or
	// more nodes, at least dcas.FalseSharingRange bytes apart — and every
	// left-end operation leaves alone the line every right-end operation
	// spins on.  NewDummy and NewLFRC do the same.
	sl, ok1 := ar.Alloc(arena.Left)
	sr, ok2 := ar.Alloc(arena.Right)
	if !ok1 || !ok2 {
		panic("listdeque: sentinel allocation failed")
	}
	d := &Deque{
		prov:        o.prov,
		ar:          ar,
		sl:          sl,
		sr:          sr,
		eagerDelete: o.eagerDelete,
		tel:         o.tel,
		lat:         o.tel != nil && o.tel.LatencyEnabled(),
	}
	d.slPtr = tagptr.Pack(sl, ar.Gen(sl), false)
	d.srPtr = tagptr.Pack(sr, ar.Gen(sr), false)
	// Initially SR->L == SL and SL->R == SR; the sentinels' outward
	// pointers are never used ("its L pointer is never used").
	d.node(sl).val.Init(SentL)
	d.node(sl).r.Init(d.srPtr)
	d.node(sl).l.Init(tagptr.Nil)
	d.node(sr).val.Init(SentR)
	d.node(sr).l.Init(d.slPtr)
	d.node(sr).r.Init(tagptr.Nil)
	// Pre-assign lock-ordering tokens while the deque is still private,
	// keeping the lazy-assignment CAS off the DCAS hot path.
	dcas.AssignIDs(&d.node(sl).l, &d.node(sl).r, &d.node(sl).val,
		&d.node(sr).l, &d.node(sr).r, &d.node(sr).val)
	return d
}

// node resolves an arena index to its storage.
func (d *Deque) node(idx uint32) *node { return d.ar.Get(idx) }

// follow resolves a pointer word to its node.
func (d *Deque) follow(w tagptr.Word) *node { return d.node(tagptr.MustIdx(w)) }

// Arena exposes the node arena (for tests and benchmarks).
func (d *Deque) Arena() *arena.Arena[node] { return d.ar }

// note flushes one completed operation's telemetry; count adds to one
// per-end counter (delete-protocol events).  Both are small enough for
// the inliner, so with no sink attached each costs one inlined nil check
// at its call site — the disabled-telemetry contract.
// start is the operation's entry stamp (tstart), 0 when latency is off.
func (d *Deque) note(end telemetry.End, outcome telemetry.Counter, retries uint64, start int64) {
	if d.tel != nil {
		d.tel.OpTimed(end, outcome, retries, start)
	}
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (d *Deque) tstart() int64 {
	if d.lat {
		return metrics.Stamp()
	}
	return 0
}

func (d *Deque) count(end telemetry.End, c telemetry.Counter, n uint64) {
	if d.tel != nil {
		d.tel.Add(end, c, n)
	}
}

// PopRight implements Figure 11.
func (d *Deque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	srL := &d.node(d.sr).l
	var retries uint64
	for {
		oldL := srL.Load()   // line 3: oldL = SR->L
		ln := d.follow(oldL) // oldL.ptr
		v := ln.val.Load()   // line 4: v = oldL.ptr->value
		if v == SentL {      // line 5
			d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if tagptr.Deleted(oldL) { // line 6
			d.deleteRight() // line 7
			continue
		}
		if v == Null { // line 8
			// The right sentinel points (undeleted) at a node deleted by a
			// popLeft: the deque is empty if this view is instantaneous
			// (lines 9-11; third diagram of Figure 9).
			if d.prov.DCAS(srL, &ln.val, oldL, v, oldL, v) { // linearization point: empty confirm (lines 9-11)
				d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			// Logical deletion (lines 14-17, Figure 12): null the value
			// and set the deleted bit in SR->L in one DCAS.
			newL := tagptr.WithDeleted(oldL, true)
			if d.prov.DCAS(srL, &ln.val, oldL, v, newL, Null) { // linearization point: logical deletion (lines 14-17)
				if d.eagerDelete {
					d.deleteRight() // footnote 6
				}
				d.note(telemetry.Right, telemetry.Pops, retries, start)
				d.count(telemetry.Right, telemetry.LogicalDeletes, 1)
				return v, spec.Okay // line 18
			}
		}
		retries++
	}
}

// PushRight implements Figure 13.  v must be ≥ MinUserValue; Full is
// returned only if the node allocator fails (line 3).
func (d *Deque) PushRight(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	idx, ok := d.ar.Alloc(arena.Right) // line 2: new Node()
	if !ok {
		d.note(telemetry.Right, telemetry.FullHits, 0, start)
		return spec.Full // line 3
	}
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false) // line 4: newL.deleted = false
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val)
	srL := &d.node(d.sr).l
	var retries uint64
	for {
		oldL := srL.Load()        // line 6
		if tagptr.Deleted(oldL) { // line 7
			d.deleteRight() // line 8
			continue
		}
		// Fill in the new node (lines 10-13).  The node is private until
		// the DCAS publishes it, so plain initializing stores suffice
		// (the paper's NewWRTSeq assumption, Figure 37).
		n.r.Init(d.srPtr) // lines 10-11: newL.ptr->R = (SR, false)
		n.l.Init(oldL)    // line 12
		n.val.Init(v)     // line 13
		// Splice in: SR->L and oldL.ptr->R both become the new node
		// (lines 14-17, Figure 14).
		oldLR := d.srPtr                                              // lines 14-15: expected oldL.ptr->R = (SR, false)
		if d.prov.DCAS(srL, &d.follow(oldL).r, oldL, oldLR, nw, nw) { // linearization point: splice (lines 14-17)
			d.note(telemetry.Right, telemetry.Pushes, retries, start)
			return spec.Okay // line 18
		}
		retries++
	}
}

// deleteRight implements Figure 17: it guarantees that, on return, the
// right sentinel's deleted bit has been observed false (the physical
// deletion of a logically deleted rightmost node has been completed, by
// this or another processor).
func (d *Deque) deleteRight() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		oldL := srL.Load()         // line 3
		if !tagptr.Deleted(oldL) { // line 4
			return
		}
		delIdx := tagptr.MustIdx(oldL)   // the logically deleted node
		oldLL := d.node(delIdx).l.Load() // line 5: oldL.ptr->L
		lln := d.follow(oldLL)           // oldLL.ptr
		if lln.val.Load() != Null {      // line 6: non-null or sentL
			oldLLR := lln.r.Load()                      // line 7: oldLL.ptr->R
			if tagptr.Ptr(oldL) == tagptr.Ptr(oldLLR) { // line 8
				// Splice out the null node: the right sentinel and the
				// deleted node's left neighbour point to each other
				// (lines 9-12, Figure 15).
				if d.prov.DCAS(srL, &lln.r, oldL, oldLLR, oldLL, d.srPtr) {
					d.retire(arena.Right, delIdx)
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return // line 13
				}
			}
		} else { // line 16: "there are two null items"
			oldR := slR.Load()        // line 17
			if tagptr.Deleted(oldR) { // line 18
				// Point the sentinels at each other (lines 19-25); this
				// DCAS overlaps with a concurrent deleteLeft's DCAS on
				// SL->R, so exactly one of them wins (Figure 16).
				if d.prov.DCAS(srL, slR, oldL, oldR, d.slPtr, d.srPtr) {
					d.retire(arena.Right, delIdx)
					d.retire(arena.Right, tagptr.MustIdx(oldR))
					// One node was deleted from each side (Figure 16).
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		}
	}
}

// PopLeft implements Figure 32 (mirror of Figure 11).
func (d *Deque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	slR := &d.node(d.sl).r
	var retries uint64
	for {
		oldR := slR.Load()
		rn := d.follow(oldR)
		v := rn.val.Load()
		if v == SentR {
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if tagptr.Deleted(oldR) {
			d.deleteLeft()
			continue
		}
		if v == Null {
			if d.prov.DCAS(slR, &rn.val, oldR, v, oldR, v) { // linearization point: empty confirm (lines 9-11)
				d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			newR := tagptr.WithDeleted(oldR, true)
			if d.prov.DCAS(slR, &rn.val, oldR, v, newR, Null) { // linearization point: logical deletion (lines 14-17)
				if d.eagerDelete {
					d.deleteLeft()
				}
				d.note(telemetry.Left, telemetry.Pops, retries, start)
				d.count(telemetry.Left, telemetry.LogicalDeletes, 1)
				return v, spec.Okay
			}
		}
		retries++
	}
}

// PushLeft implements Figure 33 (mirror of Figure 13).
func (d *Deque) PushLeft(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	idx, ok := d.ar.Alloc(arena.Left)
	if !ok {
		d.note(telemetry.Left, telemetry.FullHits, 0, start)
		return spec.Full
	}
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false)
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val)
	slR := &d.node(d.sl).r
	var retries uint64
	for {
		oldR := slR.Load()
		if tagptr.Deleted(oldR) {
			d.deleteLeft()
			continue
		}
		n.l.Init(d.slPtr) // newR.ptr->L = (SL, false)
		n.r.Init(oldR)
		n.val.Init(v)
		oldRL := d.slPtr
		if d.prov.DCAS(slR, &d.follow(oldR).l, oldR, oldRL, nw, nw) { // linearization point: splice (lines 14-17)
			d.note(telemetry.Left, telemetry.Pushes, retries, start)
			return spec.Okay
		}
		retries++
	}
}

// deleteLeft implements Figure 34 (mirror of Figure 17).
func (d *Deque) deleteLeft() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		oldR := slR.Load()
		if !tagptr.Deleted(oldR) {
			return
		}
		delIdx := tagptr.MustIdx(oldR)
		oldRR := d.node(delIdx).r.Load()
		rrn := d.follow(oldRR)
		if rrn.val.Load() != Null {
			oldRRL := rrn.l.Load()
			if tagptr.Ptr(oldR) == tagptr.Ptr(oldRRL) {
				if d.prov.DCAS(slR, &rrn.l, oldR, oldRRL, oldRR, d.slPtr) {
					d.retire(arena.Left, delIdx)
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		} else { // two null items
			oldL := srL.Load()
			if tagptr.Deleted(oldL) {
				if d.prov.DCAS(slR, srL, oldR, oldL, d.srPtr, d.slPtr) {
					d.retire(arena.Left, delIdx)
					d.retire(arena.Left, tagptr.MustIdx(oldL))
					// One node was deleted from each side (Figure 16).
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		}
	}
}

// retire returns a physically deleted node to the arena.  Exactly one
// processor executes the successful splice DCAS for a given node, so each
// node is retired exactly once.  In gc mode the storage is never reused,
// reproducing the paper's garbage-collector assumption; in reuse mode the
// node's generation advances so stale pointer words can never match a new
// incarnation.  The node goes back through lane l, the end of the
// operation whose splice retired it.
func (d *Deque) retire(l arena.Lane, idx uint32) {
	d.ar.Free(l, idx)
}
