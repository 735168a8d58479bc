// Package arena provides a concurrent, index-addressed object arena used
// as the storage allocator beneath the deque implementations.
//
// The paper assumes "a storage allocation/collection mechanism as in Lisp
// and the Java programming language" and notes (Section 2, footnote 2) that
// "the problem of implementing a non-blocking storage allocator is not
// addressed in this paper but would need to be solved to produce a
// completely non-blocking deque implementation".  This package is that
// substrate, solved three ways:
//
//   - gc mode (reuse disabled): slots are carved from the never-allocated
//     region and never recycled during the arena's lifetime, which gives
//     exactly the no-ABA guarantee the paper obtains from a garbage
//     collector.  The arena itself is reclaimed by Go's GC when dropped.
//   - reuse mode: freed slots are recycled through lock-free Treiber
//     freelists; a per-slot generation counter makes recycled references
//     distinguishable (tagged pointers), preventing ABA.
//   - bulk mode (Cache): slots are allocated and freed in batches through
//     a thread-local cache, reproducing the key idea of the follow-up
//     "Hat Trick" algorithm [24] — "list nodes to be allocated in bulk and
//     reused before being reclaimed, thereby significantly reducing the
//     overhead of frequent allocation".
//
// Slots are identified by dense uint32 indices so that a (index,
// generation, flag-bit) triple fits into one 64-bit word that DCAS can
// operate on — raw Go pointers cannot be packed with flag bits in a
// GC-safe way.
//
// The freelist and the occupancy ledger are split into two lanes, one per
// deque end, and the two lanes carve fresh slots from opposite ends of the
// index space.  Every Alloc and Free names the Lane of the operation it
// serves, so two goroutines working opposite ends of a deque touch no
// common written cache line in the allocator: the disjoint-ends property
// the paper proves for the deque's own words holds for its storage too.
//
// Put and Take are the deques' element round trip: Put allocates a slot,
// stores a value and returns its handle; Take checks the handle's
// generation, reads the value, zeroes the slot and frees it.  Each locates
// the slot's block once.
package arena

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// Nil is the reserved "no slot" index.  Valid slot indices returned by
// Alloc are in [0, Cap); Nil is math.MaxUint32 and is never allocated.
const Nil uint32 = ^uint32(0)

// Lane names the deque end an allocation or free serves.
type Lane uint8

// The two lanes, numbered like telemetry.End.
const (
	Left  Lane = 0
	Right Lane = 1
)

// block is one contiguous chunk of slots with its parallel metadata.
type block[T any] struct {
	items []T
	// next holds freelist links as idx+1 (0 = end of list).
	next []atomic.Uint32
	// gen holds per-slot generation counters; initialized to 1 on first
	// allocation of the block and incremented on every Free, so a handle
	// (gen<<32 | idx+1) is always ≥ 2³² and never repeats for one slot.
	gen []atomic.Uint32
}

// tagShift is the ABA tag's offset in a lane's freelist head word
// (checked against the //dequevet:packed declaration on lane.free by the
// stampwidth analyzer).
const tagShift = 32

// laneWords is the number of 8-byte words a lane carries before padding.
const laneWords = 4

// lane is one end's share of the arena: a Treiber freelist and the ledger
// counters of the operations that end performs.  A slot freed on one lane
// may be allocated on the other, so only sums over lanes are meaningful.
// Padded to a full false-sharing range so the two lanes can never share a
// line.
type lane struct {
	// free is the Treiber head: idx+1 of the top slot (0 = empty) below a
	// tag that every successful CAS bumps, so a head popped and pushed
	// back between a competitor's load and CAS no longer matches.
	//dequevet:packed idx:32 tag:32
	free    atomic.Uint64
	allocs  atomic.Uint64 // successful allocations on this lane
	frees   atomic.Uint64 // slots freed to this lane's freelist (reuse mode)
	retired atomic.Uint64 // slots retired through this lane (gc mode)
	_       [dcas.FalseSharingRange - 8*laneWords]byte
}

// lanes holds both ends' lanes.  They are declared contended: padlayout
// recomputes this struct's layout and rejects any edit that brings them
// within one false-sharing range of each other.
type lanes struct {
	//dequevet:contended left-end lane, written by left-end allocs and frees
	left lane
	//dequevet:contended right-end lane, written by right-end allocs and frees
	right lane
}

// at selects one end's lane.
func (ls *lanes) at(l Lane) *lane {
	if l == Left {
		return &ls.left
	}
	return &ls.right
}

// Arena is a fixed-capacity concurrent slot allocator.  All methods are
// safe for concurrent use.  An Arena must be created with New.
type Arena[T any] struct {
	blockSize  int // power of two
	blockShift uint
	capacity   int
	reuse      bool
	slotBytes  uint64
	blocks     []atomic.Pointer[block[T]]

	// The fields above are read on every operation and never written
	// after New; the pad keeps the left lane's writes off their line.
	_ dcas.CacheLinePad

	// Occupancy ledger, per lane: one counter add per Alloc or Free.  Live
	// is derived when read, as allocs − frees − retired summed over the
	// lanes; the structural audit in Occupancy checks it against the
	// freelists (reuse mode) or the slot generations (gc mode).
	lanes lanes

	// Carve state, written only when an allocation finds both freelists
	// empty (and on every allocation in gc mode, which never recycles).
	// The never-allocated region is [lo, hi): the left lane carves upward
	// from lo and the right lane downward from hi, so slots the two ends
	// carve — and their items, links and generations — sit at opposite
	// ends of the index space instead of sharing cache lines.
	//dequevet:packed lo:32 hi:32
	fresh atomic.Uint64
	// highWater is gc mode's racy maximum of the derived Live: exact when
	// quiescent, a close lower bound under concurrency.  Reuse mode
	// derives HighWater from the carve word instead (see Occupancy).
	highWater atomic.Int64
	slabs     atomic.Uint64 // published blocks; only grows
}

// Occupancy is a point-in-time snapshot of an arena's ledger, with the
// verdict of a structural audit taken at the same time.  Taken while the
// arena is quiescent it is exact and Conserved reports nil; taken
// mid-churn the counters may straddle an in-flight Alloc or Free, and the
// audit may trip over a freelist in motion.
type Occupancy struct {
	Allocs    uint64 // successful Alloc calls
	Frees     uint64 // slots recycled through the freelist (reuse mode)
	Retired   uint64 // slots permanently retired (gc mode)
	Live      int64  // currently allocated slots: Allocs − Frees − Retired
	HighWater int64  // peak Live bound; see Arena.Occupancy
	Slabs     uint64 // blocks published (monotone: slabs are never unmapped)
	SlabBytes uint64 // bytes held by published blocks (items+next+gen)
	SlotBytes uint64 // per-slot footprint: sizeof(T) + per-slot metadata
	Cap       uint64 // slot capacity
	// Audit is where the allocator's structure disagreed with Live when
	// the snapshot was taken; "" when it agreed.  See Arena.Occupancy.
	Audit string
}

// Conserved reports the snapshot's audit verdict: nil when Live is
// non-negative and the allocator's structure accounts for it, else a
// descriptive error.  Only meaningful on quiescent snapshots.
func (o Occupancy) Conserved() error {
	if o.Live < 0 {
		return fmt.Errorf("arena: negative live count %d (allocs=%d frees=%d retired=%d)",
			o.Live, o.Allocs, o.Frees, o.Retired)
	}
	if o.Audit != "" {
		return fmt.Errorf("arena: %s", o.Audit)
	}
	return nil
}

// LiveBytes reports the bytes held by live slots.
func (o Occupancy) LiveBytes() uint64 { return uint64(o.Live) * o.SlotBytes }

// Option configures an Arena.
type Option func(*config)

type config struct {
	blockSize int
	reuse     bool
}

// WithBlockSize sets the slot count per block; it is rounded up to a power
// of two.  The default is 1024.
func WithBlockSize(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.blockSize = n
	}
}

// WithReuse enables or disables slot recycling.  With reuse disabled the
// arena behaves like the paper's garbage-collected heap: a freed slot's
// storage is never handed out again, so stale references can never be
// confused with live ones (no ABA).  The default is enabled.
func WithReuse(on bool) Option {
	return func(c *config) { c.reuse = on }
}

// New returns an arena able to hold up to capacity live slots of type T.
func New[T any](capacity int, opts ...Option) *Arena[T] {
	if capacity < 1 || capacity >= int(Nil) {
		panic("arena: capacity must be in [1, 2³²−1)")
	}
	cfg := config{blockSize: 1024, reuse: true}
	for _, o := range opts {
		o(&cfg)
	}
	bs := 1
	shift := uint(0)
	for bs < cfg.blockSize {
		bs <<= 1
		shift++
	}
	nBlocks := (capacity + bs - 1) / bs
	var probe T
	a := &Arena[T]{
		blockSize:  bs,
		blockShift: shift,
		capacity:   capacity,
		reuse:      cfg.reuse,
		blocks:     make([]atomic.Pointer[block[T]], nBlocks),
		// Per-slot footprint: the item plus its parallel freelist link and
		// generation counter (4 bytes each).
		slotBytes: uint64(unsafe.Sizeof(probe)) + 8,
	}
	a.fresh.Store(uint64(capacity) << 32) // lo = 0, hi = capacity
	return a
}

// Cap reports the arena's slot capacity.
func (a *Arena[T]) Cap() int { return a.capacity }

// Reusing reports whether freed slots are recycled.
func (a *Arena[T]) Reusing() bool { return a.reuse }

// Live reports the number of currently allocated slots (approximate under
// concurrency, exact when quiescent).  It is derived from the ledger in
// O(1), without the audit Occupancy runs.
func (a *Arena[T]) Live() int { return int(a.live()) }

// live derives the allocated-slot count: allocations minus releases,
// summed over both lanes.  Releases are loaded first: every release
// counted then follows an allocation the later loads count, so the
// result is never negative and under churn errs high, never low.
func (a *Arena[T]) live() int64 {
	f := a.Frees()
	return int64(a.Allocs() - f)
}

// Allocs reports the total number of successful Alloc calls.
func (a *Arena[T]) Allocs() uint64 {
	return a.lanes.left.allocs.Load() + a.lanes.right.allocs.Load()
}

// Frees reports the total number of Free calls (recycled plus retired).
func (a *Arena[T]) Frees() uint64 {
	l, r := &a.lanes.left, &a.lanes.right
	return l.frees.Load() + r.frees.Load() + l.retired.Load() + r.retired.Load()
}

// SlotBytes reports the per-slot footprint in bytes: sizeof(T) plus the
// slot's parallel metadata (freelist link and generation counter).
func (a *Arena[T]) SlotBytes() uint64 { return a.slotBytes }

// Occupancy returns a snapshot of the arena's ledger, summed over both
// lanes, and audits the allocator's structure against it.  The counters
// are loaded individually, so a snapshot taken mid-churn may straddle an
// in-flight operation; quiescent snapshots are exact and, unless a slot
// was lost or released twice, satisfy Occupancy.Conserved.  The audit
// walks the carved slots, so a snapshot costs O(HighWater); Ledger and
// Live are the O(1) reads.
//
// The audit is independent of the ledger's arithmetic.  In reuse mode it
// walks both freelists, bounded by the number of slots carved: an index
// outside the carved region or met twice (a cycle, or a slot freed twice)
// is a fault, and the slots carved minus the slots listed must equal Live.
// In gc mode nothing is listed, and the number of carved slots whose
// generation has advanced must equal Retired.  Slots a Cache holds are
// neither listed nor live, so Drain caches before auditing.
//
// HighWater in reuse mode is the number of slots carved from the
// never-allocated region.  An allocation carves only after finding both
// freelists empty, i.e. with every carved slot live, so in any quiescent
// history the count equals the peak of Live; under concurrency a slot in
// flight to a freelist can force an extra carve, which makes it an upper
// bound (as do the slots a Cache carves in bulk and holds).  In gc mode
// nothing recycles, so carving counts allocations, and HighWater is
// instead the racy maximum of Live maintained on every allocation.
func (a *Arena[T]) Occupancy() Occupancy {
	o, lo, hi := a.ledger()
	o.Audit = a.audit(lo, hi, o)
	return o
}

// Ledger is Occupancy without the structural audit: the counter reads
// alone, O(1) however many slots are carved, for readers that poll
// (telemetry scrapes, memory-bound admission).  Audit is always "".
func (a *Arena[T]) Ledger() Occupancy {
	o, _, _ := a.ledger()
	return o
}

// ledger reads the counters and the carve word, whose carved region is
// [0, lo) and [hi, capacity); see Occupancy.
func (a *Arena[T]) ledger() (o Occupancy, lo, hi uint32) {
	l, r := &a.lanes.left, &a.lanes.right
	w := a.fresh.Load()
	lo, hi = uint32(w), uint32(w>>32)
	o = Occupancy{
		Frees:     l.frees.Load() + r.frees.Load(),
		Retired:   l.retired.Load() + r.retired.Load(),
		HighWater: a.highWater.Load(),
		Slabs:     a.slabs.Load(),
		SlotBytes: a.slotBytes,
		Cap:       uint64(a.capacity),
	}
	o.Allocs = l.allocs.Load() + r.allocs.Load() // after the releases, as in live
	o.Live = int64(o.Allocs - o.Frees - o.Retired)
	if a.reuse {
		o.HighWater = int64(lo) + int64(a.capacity) - int64(hi)
	}
	o.SlabBytes = o.Slabs * uint64(a.blockSize) * a.slotBytes
	return o, lo, hi
}

// audit checks the allocator's structure against snapshot o, whose carved
// region is [0, lo) and [hi, capacity); see Occupancy.
func (a *Arena[T]) audit(lo, hi uint32, o Occupancy) string {
	if !a.reuse {
		var advanced uint64
		for _, r := range [][2]uint32{{0, lo}, {hi, uint32(a.capacity)}} {
			for idx := r[0]; idx < r[1]; idx++ {
				if blk, off := a.lookup(idx); blk != nil && blk.gen[off].Load() != 1 {
					advanced++
				}
			}
		}
		if advanced != o.Retired {
			return fmt.Sprintf("%d carved slots have advanced generations, but retired=%d", advanced, o.Retired)
		}
		return ""
	}
	// One bit per carved slot: [0, lo) maps to itself and [hi, capacity)
	// follows it.  Reuse mode's HighWater is the carved count.
	carved := o.HighWater
	seen := make([]uint64, (carved+63)/64)
	var listed int64
	for _, l := range []Lane{Left, Right} {
		next := uint32(a.lanes.at(l).free.Load())
		for next != 0 {
			idx := next - 1
			bit := idx
			switch {
			case idx >= uint32(a.capacity) || (idx >= lo && idx < hi):
				return fmt.Sprintf("lane %d freelist holds uncarved index %d", l, idx)
			case idx >= hi:
				bit = lo + idx - hi
			}
			if seen[bit/64]&(1<<(bit%64)) != 0 {
				return fmt.Sprintf("slot %d listed twice on the freelists (a double free or a cycle)", idx)
			}
			seen[bit/64] |= 1 << (bit % 64)
			listed++
			blk, off := a.lookup(idx)
			if blk == nil {
				return fmt.Sprintf("lane %d freelist holds slot %d of an unpublished block", l, idx)
			}
			next = blk.next[off].Load()
		}
	}
	if carved-listed != o.Live {
		return fmt.Sprintf("%d slots carved, %d listed free, so %d held, but live=%d",
			carved, listed, carved-listed, o.Live)
	}
	return ""
}

// countAlloc records one successful allocation in lane ln's ledger.  In
// gc mode it also advances the live high-water mark, a racy
// read-then-store over both lanes: under contention a concurrent higher
// value can be overwritten, so HighWater is a tight lower bound there,
// exact when quiescent.
func (a *Arena[T]) countAlloc(ln *lane) {
	ln.allocs.Add(1)
	if !a.reuse {
		if l := a.live(); l > a.highWater.Load() {
			a.highWater.Store(l)
		}
	}
}

// countFree records one Free in lane ln's ledger, splitting by
// reclamation class: recycled (reuse mode) vs retired (gc mode).
func (a *Arena[T]) countFree(ln *lane) {
	if a.reuse {
		ln.frees.Add(1)
	} else {
		ln.retired.Add(1)
	}
}

// ensureBlock returns block b, publishing it first if necessary.  Multiple
// threads may race to create a block; exactly one CAS wins and the losers'
// allocations are dropped for the collector.
func (a *Arena[T]) ensureBlock(b int) *block[T] {
	if blk := a.blocks[b].Load(); blk != nil {
		return blk
	}
	n := a.blockSize
	blk := &block[T]{
		items: make([]T, n),
		next:  make([]atomic.Uint32, n),
		gen:   make([]atomic.Uint32, n),
	}
	for i := range blk.gen {
		blk.gen[i].Store(1)
	}
	if a.blocks[b].CompareAndSwap(nil, blk) {
		a.slabs.Add(1)
		return blk
	}
	return a.blocks[b].Load()
}

// locate returns the block and in-block offset for idx.
func (a *Arena[T]) locate(idx uint32) (*block[T], int) {
	blk, off := a.lookup(idx)
	if blk == nil {
		panic(fmt.Sprintf("arena: access to unallocated block %d (idx %d)", int(idx)>>a.blockShift, idx))
	}
	return blk, off
}

// lookup is locate without the panic: blk is nil when idx is out of range
// or its block is unpublished.
func (a *Arena[T]) lookup(idx uint32) (*block[T], int) {
	if int(idx) >= a.capacity {
		return nil, 0
	}
	return a.blocks[int(idx)>>a.blockShift].Load(), int(idx) & (a.blockSize - 1)
}

// popFree removes one slot from lane ln's freelist and returns it with
// the block and offset it located; blk is nil when the list is empty.
func (a *Arena[T]) popFree(ln *lane) (idx uint32, blk *block[T], off int) {
	for {
		h := ln.free.Load()
		idxPlus1 := uint32(h)
		if idxPlus1 == 0 {
			return Nil, nil, 0
		}
		idx = idxPlus1 - 1
		blk, off = a.locate(idx)
		nxt := blk.next[off].Load()
		tag := h >> tagShift
		if ln.free.CompareAndSwap(h, (tag+1)<<tagShift|uint64(nxt)) {
			return idx, blk, off
		}
	}
}

// pushFree adds slot idx, at offset off of block blk, to lane ln's
// freelist.
func (a *Arena[T]) pushFree(ln *lane, idx uint32, blk *block[T], off int) {
	for {
		h := ln.free.Load()
		blk.next[off].Store(uint32(h))
		tag := h >> tagShift
		if ln.free.CompareAndSwap(h, (tag+1)<<tagShift|uint64(idx+1)) {
			return
		}
	}
}

// carve carves up to n fresh contiguous slots from lane l's side of
// the never-allocated region; it returns the first index and how many
// were carved (0 if the arena is exhausted).
func (a *Arena[T]) carve(l Lane, n int) (uint32, int) {
	for {
		w := a.fresh.Load()
		lo, hi := uint32(w), uint32(w>>32)
		take := min(uint32(n), hi-lo)
		if take == 0 {
			return Nil, 0
		}
		first := lo
		if l == Left {
			lo += take
		} else {
			hi -= take
			first = hi
		}
		if a.fresh.CompareAndSwap(w, uint64(hi)<<32|uint64(lo)) {
			// Make sure every touched block exists before returning.
			for b := int(first) >> a.blockShift; b <= int(first+take-1)>>a.blockShift; b++ {
				a.ensureBlock(b)
			}
			return first, int(take)
		}
	}
}

// Alloc reserves one slot for an operation on lane l's end and returns
// its index.  It takes a slot from l's freelist, then from the other
// lane's, and only then carves a fresh one, so ok is false only when both
// freelists are empty and the arena is exhausted — the condition under
// which the deque's push operations return "full" ("In the actual
// implementation, the push operations return 'full' in the case that the
// memory allocator fails", Section 2.2, footnote 3).  The slot's contents
// are whatever the previous user left there (or the zero value for a
// fresh slot); callers initialize all fields before publishing the slot.
func (a *Arena[T]) Alloc(l Lane) (uint32, bool) {
	idx, blk, _ := a.alloc(l)
	return idx, blk != nil
}

// alloc is Alloc returning the slot's block and offset too; blk is nil
// when the arena is exhausted.
func (a *Arena[T]) alloc(l Lane) (idx uint32, blk *block[T], off int) {
	ln := a.lanes.at(l)
	if a.reuse {
		idx, blk, off = a.popFree(ln)
		if blk == nil {
			// Traffic that allocates on one end and frees on the other (a
			// FIFO queue, a stolen task) leaves its slots on the other lane.
			idx, blk, off = a.popFree(a.lanes.at(l ^ 1))
		}
		if blk != nil {
			a.countAlloc(ln)
			return idx, blk, off
		}
	}
	idx, n := a.carve(l, 1)
	if n == 0 {
		return Nil, nil, 0
	}
	a.countAlloc(ln)
	blk, off = a.locate(idx)
	return idx, blk, off
}

// Free returns a slot to the arena through lane l, the lane of the
// operation releasing it, and bumps the slot's generation so that stale
// tagged references can never match it again.  In gc mode the slot's
// storage is retired rather than recycled.  Freeing a slot twice without
// an intervening Alloc is a caller bug; it is not checked here, but the
// audit behind Occupancy.Conserved reports it.
func (a *Arena[T]) Free(l Lane, idx uint32) {
	blk, off := a.locate(idx)
	blk.gen[off].Add(1)
	a.release(l, idx, blk, off)
}

// release counts a free of slot idx (at offset off of block blk) on lane
// l and, in reuse mode, lists the slot on l's freelist.  The caller has
// already advanced the slot's generation.
func (a *Arena[T]) release(l Lane, idx uint32, blk *block[T], off int) {
	ln := a.lanes.at(l)
	a.countFree(ln)
	if a.reuse {
		a.pushFree(ln, idx, blk, off)
	}
}

// Put allocates a slot on lane l, stores v in it and returns the slot's
// handle (see Handle); ok is false when the arena is exhausted.
func (a *Arena[T]) Put(l Lane, v T) (uint64, bool) {
	idx, blk, off := a.alloc(l)
	if blk == nil {
		return 0, false
	}
	blk.items[off] = v
	return uint64(blk.gen[off].Load())<<32 | uint64(idx+1), true
}

// Take returns the value behind handle h and frees its slot through lane
// l, zeroing the slot so it retains no references.  The generation check
// and bump are one CompareAndSwap, so a handle is taken at most once; ok
// is false, with nothing changed, when h is zero, out of range, names an
// unpublished block or no longer matches its slot's generation.
func (a *Arena[T]) Take(l Lane, h uint64) (v T, ok bool) {
	idx := uint32(h) - 1
	blk, off := a.lookup(idx) // uint32(h) == 0 wraps idx out of range
	if blk == nil || !blk.gen[off].CompareAndSwap(uint32(h>>32), uint32(h>>32)+1) {
		return v, false
	}
	v = blk.items[off]
	var zero T
	blk.items[off] = zero
	a.release(l, idx, blk, off)
	return v, true
}

// Get returns a pointer to the slot's object.  The pointer remains valid
// for the arena's lifetime, but its contents may be recycled after Free in
// reuse mode.
func (a *Arena[T]) Get(idx uint32) *T {
	blk, off := a.locate(idx)
	return &blk.items[off]
}

// Gen returns the slot's current generation counter (≥ 1 once allocated).
func (a *Arena[T]) Gen(idx uint32) uint32 {
	blk, off := a.locate(idx)
	return blk.gen[off].Load()
}

// Handle packs the slot index with its current generation into a non-zero
// 64-bit word: gen<<32 | idx+1.  Handles are the value-words stored in
// deques by the public API; because gen ≥ 1, a handle is always ≥ 2³² and
// can never collide with the distinguished null/sentinel words.
func (a *Arena[T]) Handle(idx uint32) uint64 {
	return uint64(a.Gen(idx))<<32 | uint64(idx+1)
}

// Resolve unpacks a handle into its slot index, reporting whether the
// handle's generation still matches the slot (i.e. the slot has not been
// freed since the handle was made).
func (a *Arena[T]) Resolve(h uint64) (uint32, bool) {
	idx := uint32(h) - 1
	blk, off := a.lookup(idx) // uint32(h) == 0 wraps idx out of range
	if blk == nil {
		return Nil, false
	}
	return idx, blk.gen[off].Load() == uint32(h>>32)
}
