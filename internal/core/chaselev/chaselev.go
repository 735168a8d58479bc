// Package chaselev implements the dynamic circular work-stealing deque
// of Chase & Lev ("Dynamic Circular Work-Stealing Deque", SPAA 2005) on
// native single-word CompareAndSwap — the first backend in this library
// that needs no DCAS emulation at all.
//
// The deque is a growable power-of-two circular array indexed by two
// monotonically increasing logical counters: bottom, advanced and
// retreated only by the single owner thread with plain (non-RMW) atomic
// stores, and top, advanced only by successful CompareAndSwap.  The
// owner pushes and pops at bottom; any number of thieves steal from
// top.  Far from the top frontier the owner's operations are store/load
// only; the contested boundary is arbitrated by one CAS on the top
// word, generalizing the paper's one-element race.
//
// # Deviations from the published algorithm, and why
//
//   - The top word packs the claim index (low 40 bits) with a stamp
//     (high 24 bits) bumped by every successful CAS.  The paper needs no
//     stamp because its steal claims exactly the index it read from top:
//     a steal can then never collide with the owner's plain pop (the
//     owner takes index j only after observing top < j with bottom
//     already published as j, which forces any later thief observing
//     top ≥ j to also observe bottom ≤ j and abort).  PopLeftMany
//     breaks that argument: it claims [t, t+k) — indices above what it
//     read — in ONE CAS, so a stale batch claim could overlap a
//     concurrent owner pop.  The stamp restores the handshake: within
//     span indices of top the owner resolves its pop through a
//     stamp-bumping CAS of the top word, which invalidates every
//     in-flight claim, and batch claims never span more than span
//     indices, so plain owner pops (size > span) are provably disjoint
//     from every claimable range.  The stamp is bounded-ABA armor of
//     the same class as the paper era's tagged pointers: a wrap
//     requires 2^24 owner boundary pops at one frozen top index within
//     a single stalled steal attempt.
//   - The paper's C11/ARM formulation (Lê, Pop, Cohen, Zappa Nardelli,
//     PPoPP 2013) places release/acquire fences on the bottom store and
//     the top CAS and a seq-cst fence between the owner's bottom store
//     and top load.  Go's sync/atomic provides sequentially consistent
//     semantics for all of these accesses, which subsumes every fence
//     the published memory-model treatment requires; the owner's
//     bottom updates remain plain in the algorithmic sense — stores,
//     never read-modify-writes.
//   - Retired rings are not freed: grow links the old ring from the new
//     one (prev) and never writes to it again, so a thief holding a
//     stale ring pointer reads frozen, still-correct cells.  This is
//     the same gc-mode retirement discipline as the node arena's
//     WithoutNodeReuse mode (storage is never recycled during the
//     deque's lifetime); total retained memory is bounded by twice the
//     largest ring because sizes grow geometrically.
//
// Values are non-zero 64-bit words (handles); 0 is the distinguished
// null.  PushRight/PopRight are owner-only; PopLeft/PopLeftMany are
// safe for any thread; PushLeft is unsupported (single-ended push) and
// always reports Full.
package chaselev

import (
	"sync/atomic"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// Null is the distinguished empty-cell word.
const Null uint64 = 0

// Top-word geometry: claim index in the low bits, stamp above it.  The
// index is monotone (only ever CASed upward), so 40 bits bound the
// deque's lifetime steals at 2^40; the 24-bit stamp wraps, see the
// package comment for the bounded-ABA argument.
const (
	idxBits = 40
	idxMask = (uint64(1) << idxBits) - 1
)

func pack(idx int64, stamp uint64) uint64 { return stamp<<idxBits | uint64(idx)&idxMask }

func unpack(w uint64) (idx int64, stamp uint64) { return int64(w & idxMask), w >> idxBits }

// DefaultSpan is the default steal span: the maximum number of indices
// one batch claim may take, and the distance from the top frontier
// within which the owner's pop serializes through the top word.
const DefaultSpan = 32

// defaultRingLog sizes the initial ring at 1<<defaultRingLog cells.
const defaultRingLog = 6

// ring is one power-of-two circular array.  Cells are atomic because
// thieves read them while the owner writes neighbouring indices; a
// cell's value for a live index never changes while that index is
// claimable (see PopLeftMany's safety argument).
type ring struct {
	mask int64
	buf  []atomic.Uint64
	// prev retains the ring this one replaced (gc-mode retirement): a
	// stale thief may still be reading it, and its cells stay frozen.
	prev *ring
}

func newRing(logSize uint, prev *ring) *ring {
	n := int64(1) << logSize
	return &ring{mask: n - 1, buf: make([]atomic.Uint64, n), prev: prev}
}

func (r *ring) size() int64 { return r.mask + 1 }
func (r *ring) logSize() uint {
	lg := uint(0)
	for s := r.mask + 1; s > 1; s >>= 1 {
		lg++
	}
	return lg
}
func (r *ring) get(i int64) uint64    { return r.buf[i&r.mask].Load() }
func (r *ring) put(i int64, h uint64) { r.buf[i&r.mask].Store(h) }

// Deque is a Chase–Lev work-stealing deque over non-zero word handles.
// Create with New.  The owner end is the right end; see the package
// comment for the threading contract.
//
// The top word and the bottom index are the only always-hot mutable
// words, so each sits alone in its own false-sharing range: a steal's
// CAS on top must never invalidate the line the owner's bottom cursor
// lives on.
type Deque struct {
	tel  *telemetry.Sink
	lat  bool // tel non-nil with latency enabled: stamp operations
	span int64

	_ dcas.CacheLinePad
	//dequevet:contended top claim word (index+stamp), CAS target of every steal
	//dequevet:packed idx:40 stamp:24
	top atomic.Uint64
	_   dcas.CacheLinePad
	//dequevet:contended bottom index, the owner's plain-store cursor
	bottom atomic.Int64
	_      dcas.CacheLinePad
	// array is the current ring: read by every operation, replaced only
	// by the owner's grow.
	array atomic.Pointer[ring]
	// grows counts ring doublings, mirrored into telemetry when a sink
	// is attached.
	grows atomic.Uint64
}

// Option configures a Deque.
type Option func(*options)

type options struct {
	tel     *telemetry.Sink
	ringLog uint
	span    int64
}

// WithTelemetry attaches a telemetry sink; the default — no sink —
// costs each operation one inlined nil check.
func WithTelemetry(t *telemetry.Sink) Option {
	return func(o *options) { o.tel = t }
}

// WithRingLog sets the initial ring to 1<<log cells (default 6, i.e.
// 64).  Tests use small rings to force the grow path.
func WithRingLog(log uint) Option {
	return func(o *options) { o.ringLog = log }
}

// WithSpan overrides the steal span (default DefaultSpan, minimum 1):
// the largest batch one claim may take, and the frontier distance
// within which owner pops serialize through the top word.
func WithSpan(n int) Option {
	return func(o *options) {
		if n < 1 {
			n = 1
		}
		o.span = int64(n)
	}
}

// New returns an empty deque.  It is unbounded: pushes grow the ring
// and never fail.
func New(opts ...Option) *Deque {
	o := options{ringLog: defaultRingLog, span: DefaultSpan}
	for _, f := range opts {
		f(&o)
	}
	d := &Deque{tel: o.tel, lat: o.tel != nil && o.tel.LatencyEnabled(), span: o.span}
	d.array.Store(newRing(o.ringLog, nil))
	return d
}

// Grows reports the number of ring doublings so far.
func (d *Deque) Grows() uint64 { return d.grows.Load() }

// Rings reports the ring chain's occupancy: the ledger ring count (from
// the grows counter), the retired-ring count observed by walking the
// prev chain, the active ring's cell count, and the bytes the whole
// chain retains.  Because retired rings are never freed (gc-mode
// retirement, see the package comment), Retired is the structure-side
// ground truth and Rings the ledger side — RingCounts.Conserved
// crosschecks them, exactly on quiescent snapshots.  The walk is
// O(log capacity): sizes grow geometrically.
func (d *Deque) Rings() telemetry.RingCounts {
	grows := d.grows.Load()
	a := d.array.Load()
	rc := telemetry.RingCounts{
		Rings: grows + 1,
		Cells: uint64(a.size()),
	}
	for r := a; r != nil; r = r.prev {
		// Cell storage plus the ring header (mask, slice header, prev).
		rc.Bytes += uint64(r.size())*8 + 48
		if r != a {
			rc.Retired++
		}
	}
	return rc
}

// note flushes one completed operation's telemetry; with no sink
// attached the cost at every return site is a single inlined nil check.
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

// grow doubles the ring, copying the live logical indices [t, b) into
// the new ring and retiring the old one behind a prev link.  Owner-only
// (called from PushRight).  Thieves advancing top during the copy only
// make some copied cells dead, never wrong: a claimed index is never
// overwritten in either ring.
func (d *Deque) grow(a *ring, t, b int64) *ring {
	n := newRing(a.logSize()+1, a)
	for i := t; i < b; i++ {
		n.put(i, a.get(i))
	}
	d.array.Store(n)
	d.grows.Add(1)
	if d.tel != nil {
		d.tel.Add(telemetry.Right, telemetry.Grows, 1)
	}
	return n
}

// PushRight appends h at the owner's end (the paper's pushBottom).
// Owner-only.  It cannot fail — a full ring grows — so it always
// returns Okay; the Result return keeps the harnesses' word-level
// interface uniform.  h must not be the distinguished Null word.
//
// The push linearizes at the bottom store publishing the new index: a
// plain-store commit, deliberately not a CAS, so it carries no
// linearization-point annotation (the linpoint obligation for this
// function is zero — see the table comment in internal/analysis).
func (d *Deque) PushRight(h uint64) spec.Result {
	if h == Null {
		panic("chaselev: cannot push the distinguished null value")
	}
	start := d.tstart()
	b := d.bottom.Load()
	t, _ := unpack(d.top.Load())
	a := d.array.Load()
	if b-t >= a.size() {
		// The ring is full (the next slot would alias live index t; t
		// read once may be stale-low, which only grows early, never
		// late).
		a = d.grow(a, t, b)
	}
	a.put(b, h)
	d.bottom.Store(b + 1) // publish: the push's commit point
	d.note(telemetry.Right, telemetry.Pushes, 0, start)
	return spec.Okay
}

// PopRight removes the rightmost element (the paper's popBottom).
// Owner-only.
//
// Far from the steal frontier (more than span items) the pop is pure
// store/load: publish bottom-1, confirm top is far away, take the
// cell.  Within span of the frontier the owner serializes against
// batch claims by bumping the top word's stamp in one CAS — taking the
// index itself when it is the last item (the paper's one-element race,
// generalized to a span-element guard zone).
func (d *Deque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	var retries uint64
	b := d.bottom.Load() - 1
	d.bottom.Store(b) //dequevet:publish recheck=top.Load announce the claim, then re-read the frontier
	a := d.array.Load()
	for {
		w := d.top.Load()
		t, stamp := unpack(w)
		size := b - t
		if size < 0 {
			// Everything at or above t is claimed; reset the cursor.
			d.bottom.Store(t)
			d.note(telemetry.Right, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		h := a.get(b)
		if size > d.span {
			// No claim can reach index b: claims span at most span
			// indices above a top value this pop has already observed
			// to be far away.
			d.note(telemetry.Right, telemetry.Pops, retries, start)
			return h, spec.Okay
		}
		nt := t
		if size == 0 {
			nt = t + 1 // last item: take it by advancing top
		}
		if d.top.CompareAndSwap(w, pack(nt, stamp+1)) { // linearization point: boundary pop commit (stamp bump / one-element race)
			if size == 0 {
				d.bottom.Store(t + 1)
			}
			d.note(telemetry.Right, telemetry.Pops, retries, start)
			return h, spec.Okay
		}
		retries++ // a steal moved the frontier; re-read and re-decide
	}
}

// PopLeft steals the leftmost element (the paper's steal).  Safe for
// any thread.  Reads are ordered top, then bottom, then the ring: a
// thief that observes top index t with bottom above it is guaranteed
// the cell at t is live, and the CAS validates the whole top word so
// any boundary interference (owner stamp bump or competing claim)
// fails the attempt cleanly.
func (d *Deque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	var retries uint64
	for {
		w := d.top.Load()
		t, stamp := unpack(w)
		b := d.bottom.Load()
		a := d.array.Load()
		if b-t <= 0 {
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		h := a.get(t)
		if d.top.CompareAndSwap(w, pack(t+1, stamp+1)) { // linearization point: steal commit
			d.note(telemetry.Left, telemetry.Pops, retries, start)
			return h, spec.Okay
		}
		retries++
	}
}

// PopLeftMany steals up to len(out) elements from the left end in ONE
// CompareAndSwap: it copies the cells of [t, t+k) and then claims the
// whole range by advancing top's index by k, instead of running k
// single-steal windows.  k is additionally capped at the steal span
// and the observed size.  It returns the number of elements stored
// into out, leftmost first; 0 when the deque is observed empty.
//
// Safety of the multi-index claim: the copied cells cannot have been
// consumed, because consuming any index in [t, t+k) requires either a
// top-word CAS (a steal, or the owner's boundary pop — both bump the
// word, failing this claim) or an owner plain pop at size > span,
// which this claim can never reach (k ≤ span, and the plain pop's
// published bottom forces any later claim to stop short of it — the
// package comment's handshake, generalized).
func (d *Deque) PopLeftMany(out []uint64) int {
	if len(out) == 0 {
		return 0
	}
	start := d.tstart()
	var retries uint64
	for {
		w := d.top.Load()
		t, stamp := unpack(w)
		b := d.bottom.Load()
		a := d.array.Load()
		size := b - t
		if size <= 0 {
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0
		}
		k := size
		if int64(len(out)) < k {
			k = int64(len(out))
		}
		if k > d.span {
			k = d.span
		}
		for i := int64(0); i < k; i++ {
			out[i] = a.get(t + i)
		}
		if d.top.CompareAndSwap(w, pack(t+k, stamp+1)) { // linearization point: batch steal commit (k indices, one CAS)
			if d.tel != nil {
				d.tel.Add(telemetry.Left, telemetry.Pops, uint64(k))
				if retries != 0 {
					d.tel.Add(telemetry.Left, telemetry.Retries, retries)
				}
				// One latency sample for the whole batch: the k pops share
				// one commit, so they share one duration.
				d.tel.Latency(telemetry.Left, retries, start)
			}
			return int(k)
		}
		retries++
	}
}

// PopRightMany pops up to len(out) elements from the owner's end,
// rightmost first: a sequence of PopRight operations (each value
// linearizes inside the pop that took it), so this wrapper adds no
// commit sites of its own.  Owner-only.
func (d *Deque) PopRightMany(out []uint64) int {
	n := 0
	for n < len(out) {
		h, r := d.PopRight()
		if r == spec.Empty {
			break
		}
		out[n] = h
		n++
	}
	return n
}

// PushLeft is unsupported: Chase–Lev is single-ended-push (the paper
// has no pushTop), and the library maps the owner end to the right.
// It always reports Full without touching the deque, which the public
// wrapper surfaces as a documented "unsupported" error; the method
// exists so the word-level harness interfaces stay uniform.  The
// owner-restricted stress and model configurations never exercise it.
func (d *Deque) PushLeft(h uint64) spec.Result {
	// start 0: the rejection is immediate, not an operation latency.
	d.note(telemetry.Left, telemetry.FullHits, 0, 0)
	return spec.Full
}
