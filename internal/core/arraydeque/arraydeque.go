// Package arraydeque implements the array-based non-blocking deque of
// Section 3 of "DCAS-Based Concurrent Deques" (Agesen et al., SPAA 2000).
//
// The deque is a circular array S[0..N-1] with two index counters L and R.
// L and R always point at the next location into which a value can be
// inserted from the left and right respectively; the deque's items occupy
// the cells strictly between L and R (circularly).  The key idea of the
// algorithm is that the empty and full boundary cases are detected not by
// comparing L and R — whose relative order inverts as the deque fills
// (Figure 8) — but by DCAS-validating the combination of one end pointer
// and the content of the cell next to it:
//
//   - the deque is empty when the cell inward of an end pointer is null;
//   - the deque is full when the cell an end pointer addresses is non-null.
//
// Each operation synchronizes on exactly one end pointer plus one cell, so
// operations on opposite ends of a non-boundary deque touch disjoint
// location pairs and proceed concurrently — the paper's "uninterrupted
// concurrent access to both ends".
//
// The implementation is a line-by-line transliteration of Figures 2
// (popRight), 3 (pushRight), 30 (popLeft) and 31 (pushLeft).  The two
// optional optimizations the paper discusses are selectable:
//
//   - the index re-read at line 7 of each operation (Option RecheckIndex);
//   - the strong-DCAS early returns at lines 17–18 of the pops and pushes
//     (Option StrongDCAS).  With StrongDCAS disabled the algorithm uses
//     only the weak boolean form of DCAS, exactly as the paper notes:
//     "eliminating lines 17-18 yields an algorithm that does not require
//     the stronger version of DCAS".
//
// Values are non-zero 64-bit words; 0 is the distinguished null.
package arraydeque

import (
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// Null is the distinguished empty-cell word ("0" in the paper's figures).
const Null uint64 = 0

// cellShift is the log₂ stride, in Loc-sized units, between logical cells
// when padded-cell mode is on: 8 Locs per cell keeps consecutive cells at
// least dcas.FalseSharingRange bytes apart.
const cellShift = 3

// Deque is an array-based bounded deque.  All methods are safe for
// concurrent use.  Create with New.
//
// The two end indices are the implementation's only always-hot mutable
// words, so each sits alone in its own false-sharing range: an operation
// on one end must never invalidate the cache line the opposite end spins
// on — otherwise the hardware serializes exactly the accesses the
// algorithm keeps disjoint ("uninterrupted concurrent access to both
// ends").
type Deque struct {
	prov dcas.Provider
	// el, when non-nil, is prov's concrete type: the four operations then
	// call it directly so the two DCAS calls per attempt skip interface
	// dispatch.  The dispatch cost is fixed, so it matters exactly where
	// this provider is chosen — when the DCAS itself has been engineered
	// down to three locked instructions.
	el    *dcas.EndLock
	n     uint64
	shift uint // log₂ cell stride in s: 0 packed, cellShift padded
	s     []dcas.Loc

	recheckIndex bool
	strongDCAS   bool
	tel          *telemetry.Sink
	lat          bool // tel non-nil with latency enabled: stamp operations
	// lanes are the telemetry DCAS lanes of the two end words, indexed
	// by telemetry.End: every DCAS of an operation on one end has that
	// end's anchor as its first location, so the whole operation's tally
	// counts in one lane (telemetry.DCASLane).
	lanes [telemetry.NumEnds]uint64

	_ dcas.CacheLinePad
	//dequevet:contended left end index L, spun on by PopLeft/PushLeft
	l dcas.Loc
	_ dcas.CacheLinePad
	//dequevet:contended right end index R, spun on by PopRight/PushRight
	r dcas.Loc
	_ dcas.CacheLinePad
}

// cell returns the i-th logical cell (the paper's S[i]).
func (d *Deque) cell(i uint64) *dcas.Loc { return &d.s[i<<d.shift] }

// endLoad reads an end index.  The EndLock emulation transiently marks an
// end's word with EndLockBit while a DCAS is in flight; stripping the mark
// yields the value the in-flight DCAS pinned, which the end legitimately
// holds at this instant.  End indices are always < n, so the strip is a
// no-op under every other provider.
func (d *Deque) endLoad(l *dcas.Loc) uint64 { return l.Load() &^ dcas.EndLockBit }

// Option configures a Deque.
type Option func(*options)

type options struct {
	prov         dcas.Provider
	recheckIndex bool
	strongDCAS   bool
	paddedCells  bool
	tel          *telemetry.Sink
}

// WithProvider selects the DCAS emulation (default: a fresh dcas.EndLock,
// whose steps the model checker's EndLock expansion checks; see
// internal/verify/model).
func WithProvider(p dcas.Provider) Option {
	return func(o *options) { o.prov = p }
}

// WithRecheckIndex enables or disables the line-7 optimization of
// Figures 2/3/30/31: re-reading the end index before attempting the
// boundary-confirming DCAS.  The paper includes it "under the assumption
// that the common case is that a null value is read because another
// processor 'stole' the item"; disabling it is also correct.  Default on.
func WithRecheckIndex(on bool) Option {
	return func(o *options) { o.recheckIndex = on }
}

// WithPaddedCells spaces the cells of S so that no two logical cells share
// a false-sharing range (dcas.FalseSharingRange bytes): an operation
// retrying against cell i then cannot be slowed by unrelated traffic on
// cell i±1.  It costs 8× the array storage.  Default off.
func WithPaddedCells(on bool) Option {
	return func(o *options) { o.paddedCells = on }
}

// WithTelemetry attaches a telemetry sink: every completed operation is
// counted against its end (successes, boundary hits, retries), and its
// DCAS attempts and failures in its end's DCAS lane.  The operation
// tallies both in locals and flushes them once, at the return that
// follows its linearization point, so the provider needs no counting
// wrapper and keeps its inlined fast path (a provider wrapped with
// Sink.Instrument as well would count every DCAS twice).  The default — no sink —
// costs each operation one inlined nil check.
func WithTelemetry(t *telemetry.Sink) Option {
	return func(o *options) { o.tel = t }
}

// WithStrongDCAS enables or disables the lines 13–18 optimization: using
// the strong form of DCAS (which returns an atomic view on failure) to
// detect, without retrying, that a failed pop raced with an operation that
// emptied the deque, or that a failed push found the deque full.  Default
// on, as printed in the paper.
func WithStrongDCAS(on bool) Option {
	return func(o *options) { o.strongDCAS = on }
}

// New returns an empty deque with capacity n (the paper's length_S);
// it panics unless n ≥ 1.  Initially L == 0 and R == 1 mod n, and every
// cell holds null (Figure 4, top).
func New(n int, opts ...Option) *Deque {
	if n < 1 {
		panic("arraydeque: capacity must be ≥ 1")
	}
	o := options{recheckIndex: true, strongDCAS: true}
	for _, f := range opts {
		f(&o)
	}
	if o.prov == nil {
		o.prov = new(dcas.EndLock)
	}
	d := &Deque{
		prov:         o.prov,
		n:            uint64(n),
		recheckIndex: o.recheckIndex,
		strongDCAS:   o.strongDCAS,
		tel:          o.tel,
		lat:          o.tel != nil && o.tel.LatencyEnabled(),
	}
	if o.paddedCells {
		d.shift = cellShift
	}
	d.el, _ = o.prov.(*dcas.EndLock)
	d.s = make([]dcas.Loc, uint64(n)<<d.shift)
	d.l.Init(0)
	d.r.Init(1 % d.n)
	// Pre-assign the lock-ordering tokens while the deque is still private,
	// keeping the lazy-assignment CAS off the DCAS hot path.  One location
	// at a time: collecting them into a slice first would allocate n+2
	// pointers of garbage per deque.
	dcas.AssignIDs(&d.l, &d.r)
	d.lanes = [telemetry.NumEnds]uint64{telemetry.DCASLane(&d.l), telemetry.DCASLane(&d.r)}
	for i := uint64(0); i < d.n; i++ {
		dcas.AssignIDs(d.cell(i))
	}
	return d
}

// Cap reports the deque's capacity length_S.
func (d *Deque) Cap() int { return int(d.n) }

// note flushes one completed operation's telemetry.  It is small enough
// for the inliner, so with no sink attached the cost at every return site
// is a single inlined nil check — the disabled-telemetry contract.
// start is the operation's entry stamp (tstart), 0 when latency is off;
// att is the number of DCASes the operation issued and failed how many
// of them failed: att-1 where the last one succeeded, att at the
// strong-DCAS early returns, whose DCAS failed.
func (d *Deque) note(end telemetry.End, outcome telemetry.Counter, retries uint64, start int64, att, failed uint64) {
	if d.tel != nil {
		d.tel.OpDCAS(end, outcome, retries, start, d.lanes[end], att, failed)
	}
}

// tstart stamps an operation's entry when latency recording is enabled;
// 0 otherwise, so the disabled path never reads the clock.
func (d *Deque) tstart() int64 {
	if d.lat {
		return metrics.Nanotime()
	}
	return 0
}

// inc returns (i + 1) mod n.  Indices are always in [0, n), so the wrap
// is a compare instead of a hardware divide (a variable modulus would put
// a DIV on every operation's hot path).
func (d *Deque) inc(i uint64) uint64 {
	if i+1 == d.n {
		return 0
	}
	return i + 1
}

// dec returns (i - 1) mod n, with the paper's convention that mod yields a
// value in [0, n).
func (d *Deque) dec(i uint64) uint64 {
	if i == 0 {
		return d.n - 1
	}
	return i - 1
}

// PopRight implements Figure 2.  It returns (v, Okay) when an item was
// popped from the right end, or (0, Empty) when the deque was observed
// empty at the operation's linearization point.
func (d *Deque) PopRight() (uint64, spec.Result) {
	start := d.tstart()
	var retries, att uint64 // attempts lost; DCASes issued
	for {
		oldR := d.endLoad(&d.r) // line 3
		newR := d.dec(oldR)     // line 4
		cell := d.cell(newR)    // the paper's S[R-1]
		oldS := cell.Load()     // line 5
		if oldS == Null {       // line 6
			if !d.recheckIndex || oldR == d.endLoad(&d.r) { // line 7
				// The deque can be declared empty only on an instantaneous
				// view of R and S[R-1]; the DCAS below confirms exactly
				// that (lines 8-10).
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.r, cell, oldR, oldS, oldR, oldS) // linearization point: boundary confirm (lines 8-10)
				} else {
					ok = d.prov.DCAS(&d.r, cell, oldR, oldS, oldR, oldS) // linearization point: boundary confirm (lines 8-10)
				}
				if ok {
					d.note(telemetry.Right, telemetry.EmptyHits, retries, start, att, att-1)
					return 0, spec.Empty
				}
			}
		} else {
			if d.strongDCAS {
				att++
				saveR := oldR // line 13
				var v1, v2 uint64
				var ok bool
				if d.el != nil {
					// Inlined EndLock fast path (mark anchor, arbitrate
					// cell, commit); EndLock.DCASView is the authority on
					// the protocol and handles the marked-anchor slow case.
					if d.r.RawCAS(oldR, oldR|dcas.EndLockBit) {
						if cell.RawCAS(oldS, Null) { // linearization point: inlined EndLock commit
							d.r.RawStore(newR)
							d.note(telemetry.Right, telemetry.Pops, retries, start, att, att-1)
							return oldS, spec.Okay // line 16
						}
						v1, v2 = oldR, cell.Load() // view under the mark
						d.r.RawStore(oldR)
					} else {
						v1, v2, ok = d.el.DCASView(&d.r, cell, // linearization point: strong DCAS
							oldR, oldS, newR, Null) // lines 14-15
					}
				} else {
					v1, v2, ok = d.prov.DCASView(&d.r, cell, // linearization point: strong DCAS
						oldR, oldS, newR, Null)
				}
				if ok {
					d.note(telemetry.Right, telemetry.Pops, retries, start, att, att-1)
					return oldS, spec.Okay // line 16
				}
				oldR, oldS = v1, v2
				if oldR == saveR { // line 17
					if oldS == Null { // line 18: a competing popLeft
						d.note(telemetry.Right, telemetry.EmptyHits, retries, start, att, att)
						return 0, spec.Empty // "stole" the last item (Fig 6)
					}
				}
			} else {
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.r, cell, oldR, oldS, newR, Null) // linearization point: weak DCAS commit
				} else {
					ok = d.prov.DCAS(&d.r, cell, oldR, oldS, newR, Null) // linearization point: weak DCAS commit
				}
				if ok {
					d.note(telemetry.Right, telemetry.Pops, retries, start, att, att-1)
					return oldS, spec.Okay
				}
			}
		}
		retries++
	}
}

// PushRight implements Figure 3.  It returns Okay when v was appended at
// the right end, or Full when the deque was observed full.  v must not be
// the distinguished Null word.
func (d *Deque) PushRight(v uint64) spec.Result {
	if v == Null {
		panic("arraydeque: cannot push the distinguished null value")
	}
	start := d.tstart()
	var retries, att uint64 // attempts lost; DCASes issued
	for {
		oldR := d.endLoad(&d.r) // line 3
		newR := d.inc(oldR)     // line 4
		cell := d.cell(oldR)    // the paper's S[R]
		oldS := cell.Load()     // line 5
		if oldS != Null {       // line 6
			if !d.recheckIndex || oldR == d.endLoad(&d.r) { // line 7
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.r, cell, oldR, oldS, oldR, oldS) // linearization point: boundary confirm (lines 8-10)
				} else {
					ok = d.prov.DCAS(&d.r, cell, oldR, oldS, oldR, oldS) // linearization point: boundary confirm (lines 8-10)
				}
				if ok {
					d.note(telemetry.Right, telemetry.FullHits, retries, start, att, att-1)
					return spec.Full // line 10
				}
			}
		} else {
			if d.strongDCAS {
				att++
				saveR := oldR // line 13
				var v1 uint64
				var ok bool
				if d.el != nil {
					// Inlined EndLock fast path; see PopRight.
					if d.r.RawCAS(oldR, oldR|dcas.EndLockBit) {
						if cell.RawCAS(oldS, v) { // linearization point: inlined EndLock commit
							d.r.RawStore(newR)
							d.note(telemetry.Right, telemetry.Pushes, retries, start, att, att-1)
							return spec.Okay // line 16
						}
						v1 = oldR // anchor pinned, so the cell was non-null
						d.r.RawStore(oldR)
					} else {
						v1, _, ok = d.el.DCASView(&d.r, cell, // linearization point: strong DCAS
							oldR, oldS, newR, v) // lines 14-15
					}
				} else {
					v1, _, ok = d.prov.DCASView(&d.r, cell, // linearization point: strong DCAS
						oldR, oldS, newR, v)
				}
				if ok {
					d.note(telemetry.Right, telemetry.Pushes, retries, start, att, att-1)
					return spec.Okay // line 16
				}
				if v1 == saveR { // line 17: R unchanged, so the failure was
					d.note(telemetry.Right, telemetry.FullHits, retries, start, att, att)
					return spec.Full // a non-null cell: the deque is full
				}
			} else {
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.r, cell, oldR, Null, newR, v) // linearization point: weak DCAS commit
				} else {
					ok = d.prov.DCAS(&d.r, cell, oldR, Null, newR, v) // linearization point: weak DCAS commit
				}
				if ok {
					d.note(telemetry.Right, telemetry.Pushes, retries, start, att, att-1)
					return spec.Okay
				}
			}
		}
		retries++
	}
}

// PopLeft implements Figure 30, the mirror image of PopRight.
func (d *Deque) PopLeft() (uint64, spec.Result) {
	start := d.tstart()
	var retries, att uint64 // attempts lost; DCASes issued
	for {
		oldL := d.endLoad(&d.l) // line 3
		newL := d.inc(oldL)     // line 4
		cell := d.cell(newL)    // the paper's S[L+1]
		oldS := cell.Load()     // line 5
		if oldS == Null {       // line 6
			if !d.recheckIndex || oldL == d.endLoad(&d.l) { // line 7
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.l, cell, oldL, oldS, oldL, oldS) // linearization point: boundary confirm (lines 8-10)
				} else {
					ok = d.prov.DCAS(&d.l, cell, oldL, oldS, oldL, oldS) // linearization point: boundary confirm (lines 8-10)
				}
				if ok {
					d.note(telemetry.Left, telemetry.EmptyHits, retries, start, att, att-1)
					return 0, spec.Empty
				}
			}
		} else {
			if d.strongDCAS {
				att++
				saveL := oldL
				var v1, v2 uint64
				var ok bool
				if d.el != nil {
					// Inlined EndLock fast path; see PopRight.
					if d.l.RawCAS(oldL, oldL|dcas.EndLockBit) {
						if cell.RawCAS(oldS, Null) { // linearization point: inlined EndLock commit
							d.l.RawStore(newL)
							d.note(telemetry.Left, telemetry.Pops, retries, start, att, att-1)
							return oldS, spec.Okay
						}
						v1, v2 = oldL, cell.Load()
						d.l.RawStore(oldL)
					} else {
						v1, v2, ok = d.el.DCASView(&d.l, cell, // linearization point: strong DCAS
							oldL, oldS, newL, Null)
					}
				} else {
					v1, v2, ok = d.prov.DCASView(&d.l, cell, // linearization point: strong DCAS
						oldL, oldS, newL, Null)
				}
				if ok {
					d.note(telemetry.Left, telemetry.Pops, retries, start, att, att-1)
					return oldS, spec.Okay
				}
				oldL, oldS = v1, v2
				if oldL == saveL {
					if oldS == Null {
						d.note(telemetry.Left, telemetry.EmptyHits, retries, start, att, att)
						return 0, spec.Empty
					}
				}
			} else {
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.l, cell, oldL, oldS, newL, Null) // linearization point: weak DCAS commit
				} else {
					ok = d.prov.DCAS(&d.l, cell, oldL, oldS, newL, Null) // linearization point: weak DCAS commit
				}
				if ok {
					d.note(telemetry.Left, telemetry.Pops, retries, start, att, att-1)
					return oldS, spec.Okay
				}
			}
		}
		retries++
	}
}

// PushLeft implements Figure 31, the mirror image of PushRight.  v must
// not be the distinguished Null word.
func (d *Deque) PushLeft(v uint64) spec.Result {
	if v == Null {
		panic("arraydeque: cannot push the distinguished null value")
	}
	start := d.tstart()
	var retries, att uint64 // attempts lost; DCASes issued
	for {
		oldL := d.endLoad(&d.l) // line 3
		newL := d.dec(oldL)     // line 4
		cell := d.cell(oldL)    // the paper's S[L]
		oldS := cell.Load()     // line 5
		if oldS != Null {       // line 6
			if !d.recheckIndex || oldL == d.endLoad(&d.l) { // line 7
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.l, cell, oldL, oldS, oldL, oldS) // linearization point: boundary confirm (lines 8-10)
				} else {
					ok = d.prov.DCAS(&d.l, cell, oldL, oldS, oldL, oldS) // linearization point: boundary confirm (lines 8-10)
				}
				if ok {
					d.note(telemetry.Left, telemetry.FullHits, retries, start, att, att-1)
					return spec.Full
				}
			}
		} else {
			if d.strongDCAS {
				att++
				saveL := oldL
				var v1 uint64
				var ok bool
				if d.el != nil {
					// Inlined EndLock fast path; see PopRight.
					if d.l.RawCAS(oldL, oldL|dcas.EndLockBit) {
						if cell.RawCAS(oldS, v) { // linearization point: inlined EndLock commit
							d.l.RawStore(newL)
							d.note(telemetry.Left, telemetry.Pushes, retries, start, att, att-1)
							return spec.Okay
						}
						v1 = oldL
						d.l.RawStore(oldL)
					} else {
						v1, _, ok = d.el.DCASView(&d.l, cell, // linearization point: strong DCAS
							oldL, oldS, newL, v)
					}
				} else {
					v1, _, ok = d.prov.DCASView(&d.l, cell, // linearization point: strong DCAS
						oldL, oldS, newL, v)
				}
				if ok {
					d.note(telemetry.Left, telemetry.Pushes, retries, start, att, att-1)
					return spec.Okay
				}
				if v1 == saveL {
					d.note(telemetry.Left, telemetry.FullHits, retries, start, att, att)
					return spec.Full
				}
			} else {
				att++
				var ok bool
				if d.el != nil {
					ok = d.el.DCAS(&d.l, cell, oldL, Null, newL, v) // linearization point: weak DCAS commit
				} else {
					ok = d.prov.DCAS(&d.l, cell, oldL, Null, newL, v) // linearization point: weak DCAS commit
				}
				if ok {
					d.note(telemetry.Left, telemetry.Pushes, retries, start, att, att-1)
					return spec.Okay
				}
			}
		}
		retries++
	}
}
