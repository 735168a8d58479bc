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

// DummyDeque is the Figure 10 variant of the linked-list deque, built per
// the paper's footnote 4: "One can altogether eliminate the need for a
// 'deleted' bit by introducing a special dummy type 'delete-bit' node,
// distinguishable from regular nodes, in place of the bit ... pointing to
// a node indirectly via its dummy node represents a bit value of true,
// and pointing directly represents false."
//
// A sentinel's inward pointer therefore references either a regular node
// (not logically deleted) or a dummy node — distinguishable by its Dummy
// value word — whose inward pointer references the logically deleted
// node.  No pointer word ever carries a flag bit, so this variant would
// work on hardware without spare pointer alignment bits.
//
// The footnote gives each processor a permanent dummy per side; since
// goroutines are not enumerable processors, this implementation allocates
// a fresh dummy per logical deletion and frees it when the physical
// deletion completes — functionally identical, because dummies are
// compared by identity (their pointer word) exactly as the bit-carrying
// words are.
//
// All methods are safe for concurrent use.  Create with NewDummy.
type DummyDeque struct {
	prov dcas.Provider
	ar   *arena.Arena[node]

	sl, sr uint32
	slPtr  tagptr.Word
	srPtr  tagptr.Word

	backoff *dcas.BackoffPolicy
	tel     *telemetry.Sink
	lat     bool // tel non-nil with latency enabled: stamp operations

	// itemLimit caps live regular nodes; the arena is sized itemLimit +
	// dummyHeadroom so that pops can always allocate their delete-bit
	// dummy while at most dummyHeadroom−2 pop operations are in flight.
	// (The footnote's per-processor permanent dummies give the same bound
	// with D = number of processors.)
	itemLimit int
}

// dummyHeadroom is the arena slack reserved for delete-bit dummy nodes.
const dummyHeadroom = 64

// NewDummy returns an empty dummy-node deque.  The same options as New
// apply; WithEagerDelete is not offered (the variant exists to mirror the
// main text's lazy protocol).
func NewDummy(opts ...Option) *DummyDeque {
	o := options{maxNodes: 1 << 20, reuse: true}
	for _, f := range opts {
		f(&o)
	}
	if o.prov == nil {
		o.prov = dcas.Default()
	}
	if o.maxNodes < 4 {
		panic("listdeque: dummy variant needs at least 4 nodes")
	}
	ar := arena.New[node](o.maxNodes+dummyHeadroom, arena.WithReuse(o.reuse))
	sl, ok1 := ar.Alloc(arena.Left)
	sr, ok2 := ar.Alloc(arena.Right)
	if !ok1 || !ok2 {
		panic("listdeque: sentinel allocation failed")
	}
	d := &DummyDeque{prov: o.prov, ar: ar, sl: sl, sr: sr, backoff: o.backoff, tel: o.tel,
		lat: o.tel != nil && o.tel.LatencyEnabled(), itemLimit: o.maxNodes}
	d.slPtr = tagptr.Pack(sl, ar.Gen(sl), false)
	d.srPtr = tagptr.Pack(sr, ar.Gen(sr), false)
	d.node(sl).val.Init(SentL)
	d.node(sl).r.Init(d.srPtr)
	d.node(sl).l.Init(tagptr.Nil)
	d.node(sr).val.Init(SentR)
	d.node(sr).l.Init(d.slPtr)
	d.node(sr).r.Init(tagptr.Nil)
	dcas.AssignIDs(&d.node(sl).l, &d.node(sl).r, &d.node(sl).val,
		&d.node(sr).l, &d.node(sr).r, &d.node(sr).val)
	return d
}

func (d *DummyDeque) node(idx uint32) *node { return d.ar.Get(idx) }

// Arena exposes the node arena (for tests).
func (d *DummyDeque) Arena() *arena.Arena[node] { return d.ar }

// note and count are the telemetry flush helpers; see Deque.note.
// PhysicalDeletes counts spliced-out regular nodes only — delete-bit
// dummies are representation scaffolding, not deque items.
// start is the operation's entry stamp (tstart), 0 when latency is off.
func (d *DummyDeque) note(end telemetry.End, outcome telemetry.Counter, retries uint64, start int64) {
	if d.tel != nil {
		d.tel.OpTimed(end, outcome, retries, start)
	}
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (d *DummyDeque) tstart() int64 {
	if d.lat {
		return metrics.Nanotime()
	}
	return 0
}

func (d *DummyDeque) count(end telemetry.End, c telemetry.Counter, n uint64) {
	if d.tel != nil {
		d.tel.Add(end, c, n)
	}
}

// resolve interprets a sentinel inward pointer: if it references a dummy
// node, the logical target is the node the dummy's inward pointer
// references and the "deleted bit" is true.  right selects which inward
// pointer of the dummy holds the real target.
func (d *DummyDeque) resolve(w tagptr.Word, right bool) (real tagptr.Word, deleted bool) {
	idx := tagptr.MustIdx(w)
	if d.node(idx).val.Load() != Dummy {
		return w, false
	}
	if right {
		return d.node(idx).l.Load(), true
	}
	return d.node(idx).r.Load(), true
}

// mkDummy allocates a dummy node whose inward pointer references real.
// It returns the dummy's pointer word, or ok=false if allocation failed.
// The dummy is allocated on the lane of the popping end.
func (d *DummyDeque) mkDummy(real tagptr.Word, right bool) (tagptr.Word, uint32, bool) {
	l := arena.Left
	if right {
		l = arena.Right
	}
	idx, ok := d.ar.Alloc(l)
	if !ok {
		return tagptr.Nil, 0, false
	}
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val)
	n.val.Init(Dummy)
	if right {
		n.l.Init(real)
		n.r.Init(d.srPtr)
	} else {
		n.r.Init(real)
		n.l.Init(d.slPtr)
	}
	return tagptr.Pack(idx, d.ar.Gen(idx), false), idx, true
}

// PopRight implements Figure 11 over the dummy representation.
func (d *DummyDeque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	srL := &d.node(d.sr).l
	bo := d.backoff.Start()
	var retries uint64
	for {
		raw := srL.Load()
		real, deleted := d.resolve(raw, true)
		ridx, ok := tagptr.Idx(real)
		if !ok {
			// Stale resolve: raw's dummy was recycled under us and caught
			// mid-initialization.  SR->L has necessarily moved on (the
			// dummy is freed only after the sentinel swings away), so the
			// next load sees a current word.
			continue
		}
		if deleted {
			d.deleteRight()
			continue
		}
		v := d.node(ridx).val.Load()
		if v == SentL {
			d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if v == Null {
			if d.prov.DCAS(srL, &d.node(ridx).val, raw, v, raw, v) { // linearization point: empty confirm
				d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			// Logical deletion: swing SR->L to a fresh dummy whose L is
			// the node, and null the value, in one DCAS.
			dw, didx, ok := d.mkDummy(real, true)
			if !ok {
				// Allocator exhausted: fall back to completing pending
				// deletions, which frees dummies, then retry.
				d.deleteRight()
				continue
			}
			if d.prov.DCAS(srL, &d.node(ridx).val, raw, v, dw, Null) { // linearization point: logical deletion via dummy
				d.note(telemetry.Right, telemetry.Pops, retries, start)
				d.count(telemetry.Right, telemetry.LogicalDeletes, 1)
				return v, spec.Okay
			}
			d.ar.Free(arena.Right, didx) // never published
		}
		retries++
		bo.Wait() // the attempt lost a race; back off before retrying
	}
}

// PushRight implements Figure 13 over the dummy representation.
func (d *DummyDeque) PushRight(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	if d.ar.Live() >= d.itemLimit {
		d.note(telemetry.Right, telemetry.FullHits, 0, start)
		return spec.Full // leave the headroom for delete-bit dummies
	}
	idx, ok := d.ar.Alloc(arena.Right)
	if !ok {
		d.note(telemetry.Right, telemetry.FullHits, 0, start)
		return spec.Full
	}
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false)
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val)
	srL := &d.node(d.sr).l
	bo := d.backoff.Start()
	var retries uint64
	for {
		raw := srL.Load()
		if _, deleted := d.resolve(raw, true); deleted {
			d.deleteRight()
			continue
		}
		n.r.Init(d.srPtr)
		n.l.Init(raw)
		n.val.Init(v)
		if d.prov.DCAS(srL, &d.node(tagptr.MustIdx(raw)).r, raw, d.srPtr, nw, nw) { // linearization point: splice
			d.note(telemetry.Right, telemetry.Pushes, retries, start)
			return spec.Okay
		}
		retries++
		bo.Wait() // the attempt lost a race; back off before retrying
	}
}

// deleteRight completes a pending right-side physical deletion (Figure 17
// over the dummy representation): on return the right sentinel has been
// observed pointing directly at a regular node.
func (d *DummyDeque) deleteRight() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		raw := srL.Load()
		real, deleted := d.resolve(raw, true)
		if !deleted {
			return
		}
		delIdx, ok := tagptr.Idx(real)
		if !ok {
			continue // stale resolve through a recycled dummy; reload
		}
		oldLL := d.node(delIdx).l.Load()
		llIdx, ok := tagptr.Idx(oldLL)
		if !ok {
			// delIdx was freed and recycled under us (so raw is stale and
			// the DCAS below would fail anyway); reload.
			continue
		}
		lln := d.node(llIdx)
		if lln.val.Load() != Null {
			oldLLR := lln.r.Load()
			if tagptr.Ptr(real) == tagptr.Ptr(oldLLR) {
				if d.prov.DCAS(srL, &lln.r, raw, oldLLR, oldLL, d.srPtr) {
					d.ar.Free(arena.Right, delIdx)
					d.ar.Free(arena.Right, tagptr.MustIdx(raw)) // the dummy
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		} else { // two null items: the left side must be marked too
			oldRraw := slR.Load()
			leftReal, leftDeleted := d.resolve(oldRraw, false)
			if leftDeleted {
				if d.prov.DCAS(srL, slR, raw, oldRraw, d.slPtr, d.srPtr) {
					d.ar.Free(arena.Right, delIdx)                   // right null node
					d.ar.Free(arena.Right, tagptr.MustIdx(raw))      // right dummy
					d.ar.Free(arena.Right, tagptr.MustIdx(leftReal)) // left null node
					d.ar.Free(arena.Right, tagptr.MustIdx(oldRraw))  // left dummy
					// One regular node was deleted from each side.
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		}
	}
}

// PopLeft mirrors PopRight.
func (d *DummyDeque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	slR := &d.node(d.sl).r
	bo := d.backoff.Start()
	var retries uint64
	for {
		raw := slR.Load()
		real, deleted := d.resolve(raw, false)
		ridx, ok := tagptr.Idx(real)
		if !ok {
			continue // stale resolve through a recycled dummy; see PopRight
		}
		if deleted {
			d.deleteLeft()
			continue
		}
		v := d.node(ridx).val.Load()
		if v == SentR {
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		if v == Null {
			if d.prov.DCAS(slR, &d.node(ridx).val, raw, v, raw, v) { // linearization point: empty confirm
				d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
				return 0, spec.Empty
			}
		} else {
			dw, didx, ok := d.mkDummy(real, false)
			if !ok {
				d.deleteLeft()
				continue
			}
			if d.prov.DCAS(slR, &d.node(ridx).val, raw, v, dw, Null) { // linearization point: logical deletion via dummy
				d.note(telemetry.Left, telemetry.Pops, retries, start)
				d.count(telemetry.Left, telemetry.LogicalDeletes, 1)
				return v, spec.Okay
			}
			d.ar.Free(arena.Left, didx)
		}
		retries++
		bo.Wait() // the attempt lost a race; back off before retrying
	}
}

// PushLeft mirrors PushRight.
func (d *DummyDeque) PushLeft(v uint64) spec.Result {
	if v < MinUserValue {
		panic("listdeque: value collides with a distinguished word")
	}
	start := d.tstart()
	if d.ar.Live() >= d.itemLimit {
		d.note(telemetry.Left, telemetry.FullHits, 0, start)
		return spec.Full // leave the headroom for delete-bit dummies
	}
	idx, ok := d.ar.Alloc(arena.Left)
	if !ok {
		d.note(telemetry.Left, telemetry.FullHits, 0, start)
		return spec.Full
	}
	nw := tagptr.Pack(idx, d.ar.Gen(idx), false)
	n := d.node(idx)
	dcas.AssignIDs(&n.l, &n.r, &n.val)
	slR := &d.node(d.sl).r
	bo := d.backoff.Start()
	var retries uint64
	for {
		raw := slR.Load()
		if _, deleted := d.resolve(raw, false); deleted {
			d.deleteLeft()
			continue
		}
		n.l.Init(d.slPtr)
		n.r.Init(raw)
		n.val.Init(v)
		if d.prov.DCAS(slR, &d.node(tagptr.MustIdx(raw)).l, raw, d.slPtr, nw, nw) { // linearization point: splice
			d.note(telemetry.Left, telemetry.Pushes, retries, start)
			return spec.Okay
		}
		retries++
		bo.Wait() // the attempt lost a race; back off before retrying
	}
}

// deleteLeft mirrors deleteRight.
func (d *DummyDeque) deleteLeft() {
	srL := &d.node(d.sr).l
	slR := &d.node(d.sl).r
	for {
		raw := slR.Load()
		real, deleted := d.resolve(raw, false)
		if !deleted {
			return
		}
		delIdx, ok := tagptr.Idx(real)
		if !ok {
			continue // stale resolve through a recycled dummy; reload
		}
		oldRR := d.node(delIdx).r.Load()
		rrIdx, ok := tagptr.Idx(oldRR)
		if !ok {
			continue // delIdx recycled under us; see deleteRight
		}
		rrn := d.node(rrIdx)
		if rrn.val.Load() != Null {
			oldRRL := rrn.l.Load()
			if tagptr.Ptr(real) == tagptr.Ptr(oldRRL) {
				if d.prov.DCAS(slR, &rrn.l, raw, oldRRL, oldRR, d.slPtr) {
					d.ar.Free(arena.Left, delIdx)
					d.ar.Free(arena.Left, tagptr.MustIdx(raw))
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		} else {
			oldLraw := srL.Load()
			rightReal, rightDeleted := d.resolve(oldLraw, true)
			if rightDeleted {
				if d.prov.DCAS(slR, srL, raw, oldLraw, d.srPtr, d.slPtr) {
					d.ar.Free(arena.Left, delIdx)
					d.ar.Free(arena.Left, tagptr.MustIdx(raw))
					d.ar.Free(arena.Left, tagptr.MustIdx(rightReal))
					d.ar.Free(arena.Left, tagptr.MustIdx(oldLraw))
					// One regular node was deleted from each side.
					d.count(telemetry.Left, telemetry.PhysicalDeletes, 1)
					d.count(telemetry.Right, telemetry.PhysicalDeletes, 1)
					return
				}
			}
		}
	}
}

// Snapshot maps the dummy representation onto the deleted-bit
// representation so the shared RepInv and Abstract apply unchanged: the
// synthesized snapshot shows sentinel inward pointers with deleted bits
// instead of dummy indirections.  Quiescent use only.
func (d *DummyDeque) Snapshot() (Snapshot, error) {
	var st Snapshot
	limit := d.ar.Live() + 2
	// Resolve SL->R through a possible dummy.
	slrRaw := d.node(d.sl).r.Load()
	slrReal, leftDel := d.resolve(slrRaw, false)
	srlRaw := d.node(d.sr).l.Load()
	srlReal, rightDel := d.resolve(srlRaw, true)

	idx := d.sl
	for steps := 0; ; steps++ {
		if steps > limit {
			return st, fmt.Errorf("listdeque: R-chain does not reach SR within %d steps (cycle?)", limit)
		}
		n := d.node(idx)
		ns := NodeState{Idx: idx, L: n.l.Load(), R: n.r.Load(), Value: n.val.Load()}
		// Synthesize bit-style sentinel pointers.
		if idx == d.sl {
			ns.R = tagptr.WithDeleted(slrReal, leftDel)
		}
		if idx == d.sr {
			ns.L = tagptr.WithDeleted(srlReal, rightDel)
		}
		st.Seq = append(st.Seq, ns)
		if idx == d.sr {
			break
		}
		next := ns.R
		idx = tagptr.MustIdx(next)
	}
	st.LeftDeleted = leftDel
	st.RightDeleted = rightDel
	return st, nil
}

// CheckRepInv verifies the representation invariant on a quiescent
// snapshot of the dummy-variant deque.
func (d *DummyDeque) CheckRepInv() error {
	st, err := d.Snapshot()
	if err != nil {
		return err
	}
	return RepInvFor(st, d.sl, d.sr)
}

// Items returns the abstract deque value.  Quiescent use only.
func (d *DummyDeque) Items() ([]uint64, error) {
	st, err := d.Snapshot()
	if err != nil {
		return nil, err
	}
	if err := RepInvFor(st, d.sl, d.sr); err != nil {
		return nil, err
	}
	return Abstract(st), nil
}
