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
// top.  The operations are the published ones: a steal reads top, then
// bottom, then the cell, and claims exactly the index it read with
// CAS(top, t, t+1); the owner's pop is store/load only unless it takes
// the last element, where one CAS on top arbitrates the one-element
// race.
//
// # Deviations from the published algorithm, and why
//
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
// null.  PushRight/PopRight are owner-only; PopLeft is safe for any
// thread; PushLeft is unsupported (single-ended push) and always
// reports Full.
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

// defaultRingLog sizes the initial ring at 1<<defaultRingLog cells.
const defaultRingLog = 6

// ring is one power-of-two circular array.  Cells are atomic because
// thieves read them while the owner writes neighbouring indices; a
// cell's value for a live index never changes while that index is
// claimable (the owner writes only at bottom, and grows rather than
// wrapping onto index top).
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
// The top index and the bottom index are the only always-hot mutable
// words, so each sits alone in its own false-sharing range: a steal's
// CAS on top must never invalidate the line the owner's bottom cursor
// lives on.
type Deque struct {
	tel *telemetry.Sink
	lat bool // tel non-nil with latency enabled: stamp operations

	_ dcas.CacheLinePad
	//dequevet:contended top index, CAS target of every steal
	top atomic.Int64
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

// New returns an empty deque.  It is unbounded: pushes grow the ring
// and never fail.
func New(opts ...Option) *Deque {
	o := options{ringLog: defaultRingLog}
	for _, f := range opts {
		f(&o)
	}
	d := &Deque{tel: o.tel, lat: o.tel != nil && o.tel.LatencyEnabled()}
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
	t := d.top.Load()
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
// The pop publishes bottom-1, then reads top.  With more than one
// element left it is store/load only: no steal can reach index b,
// because a thief claims only the index it read from top and must then
// observe bottom above it.  Only when b is also the top index — the
// last element — does the owner race the thieves for it, through the
// one CAS on top (the paper's one-element race); either way bottom is
// restored to the now-empty frontier.
func (d *Deque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b) //dequevet:publish recheck=top.Load announce the claim, then re-read the frontier
	t := d.top.Load()
	if t > b {
		// Already empty: restore the cursor.
		d.bottom.Store(b + 1)
		d.note(telemetry.Right, telemetry.EmptyHits, 0, start)
		return 0, spec.Empty
	}
	h := a.get(b)
	if t < b {
		d.note(telemetry.Right, telemetry.Pops, 0, start)
		return h, spec.Okay
	}
	won := d.top.CompareAndSwap(t, t+1) // linearization point: one-element race (owner takes the last item)
	d.bottom.Store(b + 1)
	if won {
		d.note(telemetry.Right, telemetry.Pops, 0, start)
		return h, spec.Okay
	}
	// A thief took the last item first.
	d.note(telemetry.Right, telemetry.EmptyHits, 0, start)
	return 0, spec.Empty
}

// PopLeft steals the leftmost element (the paper's steal).  Safe for
// any thread.  Reads are ordered top, then bottom, then the ring: a
// thief that observes top t with bottom above it is guaranteed the cell
// at t is live, and the CAS claims exactly that index, so it fails
// cleanly if another thief or the owner's last-item pop took it first.
// A lost CAS retries; only an observed-empty deque returns Empty.
func (d *Deque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	var retries uint64
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if b-t <= 0 {
			d.note(telemetry.Left, telemetry.EmptyHits, retries, start)
			return 0, spec.Empty
		}
		h := d.array.Load().get(t)
		if d.top.CompareAndSwap(t, t+1) { // linearization point: steal commit
			d.note(telemetry.Left, telemetry.Pops, retries, start)
			return h, spec.Okay
		}
		retries++
	}
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
