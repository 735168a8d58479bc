package listdeque

import (
	"fmt"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/tagptr"
	"dcasdeque/internal/telemetry"
)

// LFRCDeque is the linked-list deque with Lock-Free Reference Counting
// reclamation, per the paper's Section 1.1: "We have also shown how these
// algorithms can be transformed into equivalent ones that do not depend
// on garbage collection, using our Lock-Free Reference Counting (LFRC)
// methodology [12]."
//
// Every node carries a reference count covering (a) pointers to it from
// shared memory — the sentinels' inward words and other nodes' link words
// — and (b) live local references held by in-flight operations.  Loading
// a shared pointer uses the LFRC idiom: a DCAS that increments the
// target's count only while the location still references it, so a count
// can never be raised on a node that has already been freed.  A node is
// freed exactly when its count reaches zero, at which point it releases
// the nodes its own link words reference.
//
// The sentinels are permanent and exempt from counting.  Unlike the
// gc/tagged-reuse modes, freed nodes here are reclaimed deterministically
// the moment the last reference disappears — the property the LFRC paper
// trades extra DCAS work for.  Tags in pointer words are retained purely
// as a test oracle for use-after-free (a stale tagged reference can be
// detected); the counts alone are what make reuse safe.
//
// All methods are safe for concurrent use.  Create with NewLFRC.
type LFRCDeque struct {
	prov dcas.Provider
	ar   *arena.Arena[rcNode]

	sl, sr uint32
	slPtr  tagptr.Word
	srPtr  tagptr.Word

	tel *telemetry.Sink
	lat bool // tel non-nil with latency enabled: stamp operations
}

// rcNode is a list node with a reference count.
type rcNode struct {
	l, r dcas.Loc
	val  dcas.Loc
	rc   dcas.Loc
}

// NewLFRC returns an empty LFRC-reclaimed deque.  Options WithProvider
// and WithMaxNodes apply; reclamation mode and deletion policy are fixed
// (counts; lazy physical deletion).
func NewLFRC(opts ...Option) *LFRCDeque {
	o := options{maxNodes: 1 << 20, reuse: true}
	for _, f := range opts {
		f(&o)
	}
	if o.prov == nil {
		o.prov = dcas.Default()
	}
	if o.maxNodes < 3 {
		panic("listdeque: need at least 3 nodes")
	}
	ar := arena.New[rcNode](o.maxNodes)
	sl, ok1 := ar.Alloc(arena.Left)
	sr, ok2 := ar.Alloc(arena.Right)
	if !ok1 || !ok2 {
		panic("listdeque: sentinel allocation failed")
	}
	d := &LFRCDeque{prov: o.prov, ar: ar, sl: sl, sr: sr, tel: o.tel,
		lat: o.tel != nil && o.tel.LatencyEnabled()}
	d.slPtr = tagptr.Pack(sl, ar.Gen(sl), false)
	d.srPtr = tagptr.Pack(sr, ar.Gen(sr), false)
	d.node(sl).val.Init(SentL)
	d.node(sl).r.Init(d.srPtr)
	d.node(sl).l.Init(tagptr.Nil)
	d.node(sl).rc.Init(1) // permanent
	d.node(sr).val.Init(SentR)
	d.node(sr).l.Init(d.slPtr)
	d.node(sr).r.Init(tagptr.Nil)
	d.node(sr).rc.Init(1) // permanent
	dcas.AssignIDs(&d.node(sl).l, &d.node(sl).r, &d.node(sl).val, &d.node(sl).rc,
		&d.node(sr).l, &d.node(sr).r, &d.node(sr).val, &d.node(sr).rc)
	return d
}

func (d *LFRCDeque) node(idx uint32) *rcNode { return d.ar.Get(idx) }

// Arena exposes the node arena (for leak checks in tests).
func (d *LFRCDeque) Arena() *arena.Arena[rcNode] { return d.ar }

// note and count are the telemetry flush helpers; see Deque.note.  The
// ref helpers record LFRC count-transfer events — every increment (addRef
// or an LFRCLoad's DCAS), every decrement, and every count reaching zero
// (a deterministic reclamation) — making the methodology's extra
// bookkeeping traffic observable next to the operation counts it serves.
// start is the operation's entry stamp (tstart), 0 when latency is off.
func (d *LFRCDeque) note(end telemetry.End, outcome telemetry.Counter, retries uint64, start int64) {
	if d.tel != nil {
		d.tel.OpTimed(end, outcome, retries, start)
	}
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (d *LFRCDeque) tstart() int64 {
	if d.lat {
		return metrics.Nanotime()
	}
	return 0
}

func (d *LFRCDeque) count(end telemetry.End, c telemetry.Counter, n uint64) {
	if d.tel != nil {
		d.tel.Add(end, c, n)
	}
}

func (d *LFRCDeque) refInc() {
	if d.tel != nil {
		d.tel.RefInc()
	}
}

func (d *LFRCDeque) refDec() {
	if d.tel != nil {
		d.tel.RefDec()
	}
}

func (d *LFRCDeque) refFree() {
	if d.tel != nil {
		d.tel.RefFree()
	}
}

// sentinel reports whether a pointer word references a sentinel, which is
// exempt from counting.
func (d *LFRCDeque) sentinel(w tagptr.Word) bool {
	idx := tagptr.MustIdx(w)
	return idx == d.sl || idx == d.sr
}

// addRef increments the count behind w.  The caller must already own a
// counted reference to w's node.
func (d *LFRCDeque) addRef(w tagptr.Word) {
	if w == tagptr.Nil || d.sentinel(w) {
		return
	}
	n := d.node(tagptr.MustIdx(w))
	for {
		rc := n.rc.Load()
		if rc == 0 {
			panic("listdeque: addRef on dead node")
		}
		if n.rc.CAS(rc, rc+1) {
			d.refInc()
			return
		}
	}
}

// release consumes one counted reference to w's node, freeing the node —
// and releasing its outgoing links — when the count reaches zero.  Freed
// nodes go back through lane l, the end of the releasing operation.
func (d *LFRCDeque) release(l arena.Lane, w tagptr.Word) {
	if d.leakDropRelease(w) {
		return // seeded fault: the decrement never happens (see leak.go)
	}
	work := []tagptr.Word{w}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if cur == tagptr.Nil || d.sentinel(cur) {
			continue
		}
		idx := tagptr.MustIdx(cur)
		n := d.node(idx)
		for {
			rc := n.rc.Load()
			if rc == 0 {
				panic("listdeque: release on dead node")
			}
			if !n.rc.CAS(rc, rc-1) {
				continue
			}
			d.refDec()
			if rc-1 == 0 {
				work = append(work, n.l.Load(), n.r.Load())
				n.l.Init(tagptr.Nil)
				n.r.Init(tagptr.Nil)
				n.val.Init(Null)
				d.ar.Free(l, idx)
				d.refFree()
			}
			break
		}
	}
}

// load performs LFRCLoad on a shared pointer word: it returns the word
// with the target's count incremented, atomically with respect to the
// location still holding that word.  Sentinel targets skip the count.
func (d *LFRCDeque) load(loc *dcas.Loc) tagptr.Word {
	for {
		w := loc.Load()
		if w == tagptr.Nil || d.sentinel(w) {
			return w
		}
		n := d.node(tagptr.MustIdx(w))
		rc := n.rc.Load()
		if rc == 0 {
			continue // node dying; loc must have moved on
		}
		if d.prov.DCAS(loc, &n.rc, w, rc, w, rc+1) {
			d.refInc()
			return w
		}
	}
}

// PopRight implements Figure 11 with LFRC bookkeeping.
func (d *LFRCDeque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	srL := &d.node(d.sr).l
	var retries uint64
	for {
		oldL := d.load(srL) // counted local ref (unless sentinel)
		ln := d.node(tagptr.MustIdx(oldL))
		v := ln.val.Load()
		if v == SentL {
			d.release(arena.Right, oldL)
			d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if tagptr.Deleted(oldL) {
			d.release(arena.Right, oldL)
			d.deleteRight()
			continue
		}
		if v == Null {
			ok := d.prov.DCAS(srL, &ln.val, oldL, v, oldL, v) // linearization point: empty confirm
			d.release(arena.Right, oldL)
			if ok {
				d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			// Marking flips only the deleted bit: SR->L references the
			// same node before and after, so no count moves.
			newL := tagptr.WithDeleted(oldL, true)
			ok := d.prov.DCAS(srL, &ln.val, oldL, v, newL, Null) // linearization point: logical deletion
			d.release(arena.Right, oldL)
			if ok {
				d.note(telemetry.Right, telemetry.Pops, retries, start)
				d.count(telemetry.Right, telemetry.LogicalDeletes, 1)
				return v, spec.Okay
			}
		}
		retries++
	}
}

// PushRight implements Figure 13 with LFRC bookkeeping.
func (d *LFRCDeque) PushRight(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	idx, ok := d.ar.Alloc(arena.Right)
	if !ok {
		d.note(telemetry.Right, telemetry.FullHits, 0, start)
		return spec.Full
	}
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val, &n.rc)
	// Pre-charge the count for the two shared references (SR->L and the
	// old neighbour's r link) the splice DCAS installs.  The node is
	// private until that DCAS publishes it, so the early increment is
	// invisible; charging after publication instead opens a window where a
	// concurrent pop + physical delete releases both shared references and
	// frees the node under us.
	n.rc.Init(2)
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false)
	srL := &d.node(d.sr).l
	var retries uint64
	for {
		oldL := d.load(srL)
		if tagptr.Deleted(oldL) {
			d.release(arena.Right, oldL)
			d.deleteRight()
			continue
		}
		n.r.Init(d.srPtr)
		n.l.Init(oldL) // the link takes over our local reference to oldL
		n.val.Init(v)
		lln := d.node(tagptr.MustIdx(oldL))
		if d.prov.DCAS(srL, &lln.r, oldL, d.srPtr, nw, nw) { // linearization point: splice
			// Ledger: n's pre-charged count of 2 now matches its two
			// shared references exactly.  SR->L dropped its reference to
			// oldL (released below) while n.l holds our transferred load
			// reference (net 0 for oldL).
			d.release(arena.Right, oldL) // SR->L's dropped reference to oldL
			d.note(telemetry.Right, telemetry.Pushes, retries, start)
			return spec.Okay
		}
		// Retry: reclaim the load reference (the n.l link will be
		// overwritten next iteration).
		d.release(arena.Right, oldL)
		retries++
	}
}

// deleteRight implements Figure 17 with LFRC bookkeeping.
func (d *LFRCDeque) deleteRight() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		oldL := d.load(srL)
		if !tagptr.Deleted(oldL) {
			d.release(arena.Right, oldL)
			return
		}
		delN := d.node(tagptr.MustIdx(oldL))
		oldLL := d.load(&delN.l)
		lln := d.node(tagptr.MustIdx(oldLL))
		if lln.val.Load() != Null {
			oldLLR := d.load(&lln.r)
			if tagptr.Ptr(oldL) == tagptr.Ptr(oldLLR) {
				if d.prov.DCAS(srL, &lln.r, oldL, oldLLR, oldLL, d.srPtr) {
					// The deleted node lost both shared references (SR->L
					// and lln.r); oldLL gained one (SR->L).
					d.addRef(oldLL)
					d.release(arena.Right, oldL)   // SR->L's ref to the deleted node
					d.release(arena.Right, oldLLR) // lln.r's ref to the deleted node
					// Release our three locals.
					d.release(arena.Right, oldL)
					d.release(arena.Right, oldLL)
					d.release(arena.Right, oldLLR)
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return
				}
			}
			d.release(arena.Right, oldLLR)
			d.release(arena.Right, oldLL)
			d.release(arena.Right, oldL)
		} else { // two null items
			oldR := d.load(slR)
			if tagptr.Deleted(oldR) {
				if d.prov.DCAS(srL, slR, oldL, oldR, d.slPtr, d.srPtr) {
					// The two dead nulls reference each other (right.l →
					// left, left.r → right) — a cycle plain counting can
					// never collect.  The winner severs it while still
					// holding counted locals; stale readers see harmless
					// sentinel words.
					d.severLink(arena.Right, &delN.l, tagptr.Ptr(oldR) /* right.l -> left */, d.slPtr)
					leftN := d.node(tagptr.MustIdx(oldR))
					d.severLink(arena.Right, &leftN.r, tagptr.Ptr(oldL) /* left.r -> right */, d.srPtr)
					// Both nulls lost their sentinel references too.
					d.release(arena.Right, oldL) // SR->L's ref to the right null
					d.release(arena.Right, oldR) // SL->R's ref to the left null
					d.release(arena.Right, oldL) // our local
					d.release(arena.Right, oldR) // our local
					d.release(arena.Right, oldLL)
					// One node was deleted from each side (Figure 16).
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
			d.release(arena.Right, oldR)
			d.release(arena.Right, oldLL)
			d.release(arena.Right, oldL)
		}
	}
}

// severLink atomically replaces a dead node's link to another dead node
// with an uncounted sentinel word and releases the link's reference.  The
// expected current target is given without its deleted bit; the link may
// legitimately hold it with either bit value.  l is the lane of the
// deleting operation.
func (d *LFRCDeque) severLink(l arena.Lane, link *dcas.Loc, target tagptr.Word, sentinelWord tagptr.Word) {
	for _, cand := range []tagptr.Word{target, tagptr.WithDeleted(target, true)} {
		if link.CAS(cand, sentinelWord) {
			d.release(l, cand)
			return
		}
	}
	// Already severed by a competing winner (impossible — the DCAS has a
	// single winner — but harmless to tolerate).
}

// PopLeft mirrors PopRight.
func (d *LFRCDeque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	slR := &d.node(d.sl).r
	var retries uint64
	for {
		oldR := d.load(slR)
		rn := d.node(tagptr.MustIdx(oldR))
		v := rn.val.Load()
		if v == SentR {
			d.release(arena.Left, oldR)
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if tagptr.Deleted(oldR) {
			d.release(arena.Left, oldR)
			d.deleteLeft()
			continue
		}
		if v == Null {
			ok := d.prov.DCAS(slR, &rn.val, oldR, v, oldR, v) // linearization point: empty confirm
			d.release(arena.Left, oldR)
			if ok {
				d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			newR := tagptr.WithDeleted(oldR, true)
			ok := d.prov.DCAS(slR, &rn.val, oldR, v, newR, Null) // linearization point: logical deletion
			d.release(arena.Left, oldR)
			if ok {
				d.note(telemetry.Left, telemetry.Pops, retries, start)
				d.count(telemetry.Left, telemetry.LogicalDeletes, 1)
				return v, spec.Okay
			}
		}
		retries++
	}
}

// PushLeft mirrors PushRight.
func (d *LFRCDeque) PushLeft(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	idx, ok := d.ar.Alloc(arena.Left)
	if !ok {
		d.note(telemetry.Left, telemetry.FullHits, 0, start)
		return spec.Full
	}
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val, &n.rc)
	n.rc.Init(2) // pre-charged for the splice's two shared refs; see PushRight
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false)
	slR := &d.node(d.sl).r
	var retries uint64
	for {
		oldR := d.load(slR)
		if tagptr.Deleted(oldR) {
			d.release(arena.Left, oldR)
			d.deleteLeft()
			continue
		}
		n.l.Init(d.slPtr)
		n.r.Init(oldR)
		n.val.Init(v)
		rn := d.node(tagptr.MustIdx(oldR))
		if d.prov.DCAS(slR, &rn.l, oldR, d.slPtr, nw, nw) { // linearization point: splice
			d.release(arena.Left, oldR)
			d.note(telemetry.Left, telemetry.Pushes, retries, start)
			return spec.Okay
		}
		d.release(arena.Left, oldR)
		retries++
	}
}

// deleteLeft mirrors deleteRight.
func (d *LFRCDeque) deleteLeft() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		oldR := d.load(slR)
		if !tagptr.Deleted(oldR) {
			d.release(arena.Left, oldR)
			return
		}
		delN := d.node(tagptr.MustIdx(oldR))
		oldRR := d.load(&delN.r)
		rrn := d.node(tagptr.MustIdx(oldRR))
		if rrn.val.Load() != Null {
			oldRRL := d.load(&rrn.l)
			if tagptr.Ptr(oldR) == tagptr.Ptr(oldRRL) {
				if d.prov.DCAS(slR, &rrn.l, oldR, oldRRL, oldRR, d.slPtr) {
					d.addRef(oldRR)
					d.release(arena.Left, oldR)
					d.release(arena.Left, oldRRL)
					d.release(arena.Left, oldR)
					d.release(arena.Left, oldRR)
					d.release(arena.Left, oldRRL)
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
			d.release(arena.Left, oldRRL)
			d.release(arena.Left, oldRR)
			d.release(arena.Left, oldR)
		} else {
			oldL := d.load(srL)
			if tagptr.Deleted(oldL) {
				if d.prov.DCAS(slR, srL, oldR, oldL, d.srPtr, d.slPtr) {
					// Sever the dead pair's mutual links (see deleteRight).
					d.severLink(arena.Left, &delN.r, tagptr.Ptr(oldL) /* left.r -> right */, d.srPtr)
					rightN := d.node(tagptr.MustIdx(oldL))
					d.severLink(arena.Left, &rightN.l, tagptr.Ptr(oldR) /* right.l -> left */, d.slPtr)
					d.release(arena.Left, oldR) // SL->R's ref to the left null
					d.release(arena.Left, oldL) // SR->L's ref to the right null
					d.release(arena.Left, oldR) // our local
					d.release(arena.Left, oldL) // our local
					d.release(arena.Left, oldRR)
					// One node was deleted from each side (Figure 16).
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return
				}
			}
			d.release(arena.Left, oldL)
			d.release(arena.Left, oldRR)
			d.release(arena.Left, oldR)
		}
	}
}

// Items returns the abstract deque value; quiescent use only.
func (d *LFRCDeque) Items() ([]uint64, error) {
	st, err := d.snapshotRC()
	if err != nil {
		return nil, err
	}
	if err := RepInvFor(st, d.sl, d.sr); err != nil {
		return nil, err
	}
	return Abstract(st), nil
}

// CheckRepInv verifies the shared representation invariant; quiescent use
// only.
func (d *LFRCDeque) CheckRepInv() error {
	st, err := d.snapshotRC()
	if err != nil {
		return err
	}
	return RepInvFor(st, d.sl, d.sr)
}

// CheckCounts verifies, on a quiescent deque, that every live node's
// reference count equals the number of shared references to it (sentinel
// inward words plus neighbour links) — the LFRC ledger invariant.
func (d *LFRCDeque) CheckCounts() error {
	st, err := d.snapshotRC()
	if err != nil {
		return err
	}
	want := map[uint32]uint64{}
	for i, ns := range st.Seq {
		if i > 0 { // referenced by the left neighbour's r link
			want[ns.Idx]++
		}
		if i < len(st.Seq)-1 { // referenced by the right neighbour's l link
			want[ns.Idx]++
		}
	}
	for _, ns := range st.Seq[1 : len(st.Seq)-1] {
		got := d.node(ns.Idx).rc.Load()
		if got != want[ns.Idx] {
			return fmt.Errorf("listdeque: node %d rc=%d, want %d shared refs", ns.Idx, got, want[ns.Idx])
		}
	}
	return nil
}

// snapshotRC walks the chain like Snapshot does for the bit variant.
func (d *LFRCDeque) snapshotRC() (Snapshot, error) {
	var st Snapshot
	limit := d.ar.Live() + 2
	idx := d.sl
	for steps := 0; ; steps++ {
		if steps > limit {
			return st, fmt.Errorf("listdeque: R-chain does not reach SR within %d steps (cycle?)", limit)
		}
		n := d.node(idx)
		ns := NodeState{Idx: idx, L: n.l.Load(), R: n.r.Load(), Value: n.val.Load()}
		st.Seq = append(st.Seq, ns)
		if idx == d.sr {
			break
		}
		next, ok := tagptr.Idx(ns.R)
		if !ok {
			return st, fmt.Errorf("listdeque: nil R pointer at node %d", idx)
		}
		idx = next
	}
	st.LeftDeleted = tagptr.Deleted(d.node(d.sl).r.Load())
	st.RightDeleted = tagptr.Deleted(d.node(d.sr).l.Load())
	return st, nil
}
