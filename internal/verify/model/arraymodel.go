package model

import (
	"errors"
	"fmt"
	"strings"

	"dcasdeque/internal/core/arraydeque"
	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// arraySys is the checker's model of the array-based algorithm: the shared
// memory (L, R, S) plus one step machine per thread, transliterated from
// Figures 2, 3, 30, 31 with one step per shared-memory access.  The model
// implements the algorithm exactly as printed (index recheck at line 7 and
// the strong DCAS of lines 13–18 both present).
//
// With endLock set, every DCAS is expanded into dcas.EndLock's own steps
// instead of one atomic step (see stepEndLock): the DCAS is checked as
// implemented, not assumed.
type arraySys struct {
	n       int
	l, r    uint64 // the end words; EndLock's mark is their top bit
	s       []uint64
	threads []arrayThread
	// The two optional code fragments of Section 3, modelled so the
	// paper's claim that the algorithm "would still be correct if line 7,
	// and/or lines 17 and 18, were deleted" is checked exhaustively too.
	strong  bool // lines 13-18: strong DCAS with early empty/full returns
	recheck bool // line 7: re-read of the end index
	endLock bool // DCAS expanded into EndLock's steps
	bug     endLockBug
	// fault is the first emulation obligation a step broke (Fault).
	fault string
}

// endLockBug seeds one known-wrong EndLock variant, so the tests can
// check that some obligation catches it.
type endLockBug uint8

const (
	noBug              endLockBug = iota
	bugCommitFirst                // the commit store runs before the cell CAS
	bugUnmaskedEndRead            // end reads keep the mark bit
	bugSkipRestore                // no restore store after a failed cell CAS
)

// Program counters within one operation.  Local computation is folded into
// the transition following each memory access, so every step is exactly
// one Read or one DCAS.
const (
	apcReadIdx   = iota // read the end index (line 3)
	apcReadCell         // read the cell (line 5)
	apcRecheck          // re-read the end index (line 7)
	apcEmptyDCAS        // boundary-confirming DCAS (lines 8-10 / full test)
	apcValueDCAS        // strong DCAS (lines 14-15)

	// The EndLock expansion of either DCAS, one step per access of
	// EndLock.DCAS / EndLock.DCASView.
	apcMark       // anchor mark CAS: o1 -> o1|EndLockBit
	apcViewLoad   // the separate a2 load of a view whose mark CAS failed
	apcCellCAS    // a2 CAS under the mark: the DCAS's linearization point
	apcMarkedLoad // a2 load of a failed strong DCAS, under the mark
	apcCommit     // store n1: commit and unmark
	apcRestore    // store o1: restore and unmark
)

type arrayThread struct {
	prog []OpSpec
	opi  int
	pc   int
	// registers (oldR/newR/oldS/saveR, or their left-side counterparts)
	oldI, newI, oldS, saveI uint64
	// EndLock registers: which DCAS is in flight (the boundary confirm,
	// or the value DCAS), whether this thread holds its anchor's mark,
	// whether its cell CAS succeeded, and whether the operation has
	// linearized and completes at its unmarking store.
	confirm, held, won, done bool
}

// NewArraySys builds a model of the array deque as printed (both optional
// optimizations present) with capacity n, initial items (left to right),
// and one thread per program.  It panics if the initial contents exceed
// the capacity.
func NewArraySys(n int, initial []uint64, progs [][]OpSpec) Sys {
	return NewArraySysVariant(n, initial, progs, true, true)
}

// NewArraySysVariant additionally selects the optional code fragments:
// strong enables the lines 13-18 strong-DCAS early returns, recheck the
// line-7 index re-read.
func NewArraySysVariant(n int, initial []uint64, progs [][]OpSpec, strong, recheck bool) Sys {
	return newArraySys(n, initial, progs, strong, recheck, false, noBug)
}

// NewArraySysEndLock is NewArraySysVariant with every DCAS expanded into
// the steps of dcas.EndLock, the array deque's default provider:
//
//   - the anchor mark CAS of o1 for o1|EndLockBit, which on a mismatch
//     returns the anchor's masked current value and waits while the
//     anchor is marked over o1;
//   - the cell CAS of o2 for n2, under the mark;
//   - the commit store of n1, or the restore store of o1, which unmarks;
//   - the a2 load of a failed DCASView: under the mark after a failed
//     cell CAS, and as a separate step after a failed mark CAS.
//
// End reads (lines 3 and 7) mask the mark.  Besides the algorithm's
// obligations, every state is checked against the emulation's own
// (Fault): a marked anchor has exactly one holder, every cell CAS, view
// load and unmarking store runs while its thread holds the anchor pinned
// at o1, and no anchor value uses the mark bit.  The abstraction reads an
// anchor whose holder's cell CAS has succeeded as n1, so a successful
// DCAS takes effect at its cell CAS.  A thread that waits on a mark is
// checked for deadlock freedom instead of solo termination (WaitsOn).
func NewArraySysEndLock(n int, initial []uint64, progs [][]OpSpec, strong, recheck bool) Sys {
	return newArraySys(n, initial, progs, strong, recheck, true, noBug)
}

func newArraySys(n int, initial []uint64, progs [][]OpSpec, strong, recheck, endLock bool, bug endLockBug) *arraySys {
	if n < 1 {
		panic("model: capacity must be ≥ 1")
	}
	if len(initial) > n {
		panic("model: more initial items than capacity")
	}
	sys := &arraySys{n: n, s: make([]uint64, n), strong: strong, recheck: recheck, endLock: endLock, bug: bug}
	// Lay the initial items out exactly as a sequence of pushRights from
	// the initial L=0, R=1 state would.
	sys.l, sys.r = 0, uint64(1%n)
	for _, v := range initial {
		if v == 0 {
			panic("model: initial item cannot be null")
		}
		sys.s[sys.r] = v
		sys.r = (sys.r + 1) % uint64(n)
	}
	for _, p := range progs {
		sys.threads = append(sys.threads, arrayThread{prog: p, pc: apcReadIdx})
	}
	return sys
}

func (a *arraySys) Clone() Sys {
	c := &arraySys{n: a.n, l: a.l, r: a.r, strong: a.strong, recheck: a.recheck, endLock: a.endLock, bug: a.bug}
	c.s = append([]uint64(nil), a.s...)
	// prog is immutable and shared; registers are value-copied.
	c.threads = append([]arrayThread(nil), a.threads...)
	return c
}

func (a *arraySys) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d|", a.l, a.r)
	for _, v := range a.s {
		fmt.Fprintf(&b, "%d,", v)
	}
	for _, t := range a.threads {
		fmt.Fprintf(&b, "|%d,%d,%d,%d,%d,%d,%t,%t,%t,%t", t.opi, t.pc, t.oldI, t.newI, t.oldS, t.saveI,
			t.confirm, t.held, t.won, t.done)
	}
	return b.String()
}

func (a *arraySys) NumThreads() int { return len(a.threads) }

func (a *arraySys) Done(i int) bool { return a.threads[i].opi >= len(a.threads[i].prog) }

// OpsRemaining implements the soloCounter used by the non-blocking check.
func (a *arraySys) OpsRemaining(i int) int { return len(a.threads[i].prog) - a.threads[i].opi }

func (a *arraySys) Capacity() int { return a.n }

// SoloBound: a solo operation completes within one loop iteration after at
// most one failed-then-retried round; 3 iterations of ≤ 4 steps is ample
// (≤ 8 steps each when the DCAS is expanded into EndLock's).
func (a *arraySys) SoloBound() int {
	if a.endLock {
		return 24
	}
	return 12
}

// Abstract applies the abstraction to the anchors' logical values: the
// masked word, or n1 while its holder's cell CAS has succeeded and the
// commit store is still pending.
func (a *arraySys) Abstract() ([]uint64, error) {
	return arraydeque.Abstract(arraydeque.Snapshot{L: a.logical(false), R: a.logical(true), Cells: append([]uint64(nil), a.s...)})
}

// logical returns an end's logical value (see Abstract).
func (a *arraySys) logical(right bool) uint64 {
	if j, _ := a.holder(right); j >= 0 && a.threads[j].won {
		return a.threads[j].n1()
	}
	if right {
		return a.r &^ dcas.EndLockBit
	}
	return a.l &^ dcas.EndLockBit
}

// Fault reports the first emulation obligation broken so far: by a step
// (recorded in a.fault), or by the mark invariant — an anchor is marked
// exactly while one thread holds it.
func (a *arraySys) Fault() error {
	if a.fault != "" {
		return errors.New(a.fault)
	}
	if !a.endLock {
		return nil
	}
	for _, right := range []bool{false, true} {
		word, side := a.l, "L"
		if right {
			word, side = a.r, "R"
		}
		_, holders := a.holder(right)
		marked := word&dcas.EndLockBit != 0
		switch {
		case holders > 1:
			return fmt.Errorf("EndLock: %d threads hold %s's mark", holders, side)
		case marked && holders == 0:
			return fmt.Errorf("EndLock: %s is marked but no thread holds its mark", side)
		case !marked && holders == 1:
			return fmt.Errorf("EndLock: a thread holds %s's mark but %s is unmarked", side, side)
		}
	}
	return nil
}

// WaitsOn reports whether thread i's next step waits on a mark — its mark
// CAS finds the anchor marked over the very value it expects — and which
// thread holds that mark (-1: none).
func (a *arraySys) WaitsOn(i int) (int, bool) {
	t := &a.threads[i]
	if !a.endLock || a.Done(i) || t.pc != apcMark || *a.end(i) != t.oldI|dcas.EndLockBit {
		return -1, false
	}
	j, _ := a.holder(a.isRight(i))
	return j, true
}

// holder returns the first thread holding an end's mark (-1: none) and
// how many threads hold it.
func (a *arraySys) holder(right bool) (first, n int) {
	first = -1
	for i := range a.threads {
		if a.threads[i].held && a.isRight(i) == right {
			if n == 0 {
				first = i
			}
			n++
		}
	}
	return first, n
}

func (a *arraySys) inc(i uint64) uint64 { return (i + 1) % uint64(a.n) }
func (a *arraySys) dec(i uint64) uint64 { return (i + uint64(a.n) - 1) % uint64(a.n) }

// isRight reports whether thread i's current operation works on R.
func (a *arraySys) isRight(i int) bool {
	t := &a.threads[i]
	if a.Done(i) {
		return false
	}
	k := t.prog[t.opi].Kind
	return k == PushRight || k == PopRight
}

// end returns the word of the end thread i's current operation works on.
func (a *arraySys) end(i int) *uint64 {
	if a.isRight(i) {
		return &a.r
	}
	return &a.l
}

// endRead is a line-3 or line-7 read of an end word: EndLock's transient
// mark is masked off, so a marked anchor reads as the value it is pinned
// at (bugUnmaskedEndRead leaks it).
func (a *arraySys) endRead(i int) uint64 {
	v := *a.end(i)
	if a.bug == bugUnmaskedEndRead {
		return v
	}
	return v &^ dcas.EndLockBit
}

// dcasPC is the pc that issues the operation's next DCAS: the boundary
// confirm when confirm is set, else the value DCAS.
func (a *arraySys) dcasPC(t *arrayThread, confirm bool) int {
	if a.endLock {
		t.confirm = confirm
		return apcMark
	}
	if confirm {
		return apcEmptyDCAS
	}
	return apcValueDCAS
}

// Step executes one atomic action of thread i.
func (a *arraySys) Step(i int, absEmpty bool) (string, *Lin) {
	t := &a.threads[i]
	op := t.prog[t.opi]
	fin := func(val uint64, res spec.Result) *Lin {
		lin := &Lin{Thread: i, Op: op, Val: val, Res: res}
		t.complete()
		return lin
	}
	right := a.isRight(i)
	pop := op.Kind == PopLeft || op.Kind == PopRight
	idx := func() uint64 { return *a.end(i) } // the end counter this op works on
	setIdx := func(v uint64) { *a.end(i) = v }
	side := "R"
	if !right {
		side = "L"
	}

	switch t.pc {
	case apcReadIdx: // line 3
		t.oldI = a.endRead(i)
		if pop == right {
			t.newI = a.dec(t.oldI)
		} else {
			t.newI = a.inc(t.oldI)
		}
		t.pc = apcReadCell
		return fmt.Sprintf("%v: read %s=%d", op, side, t.oldI), nil

	case apcReadCell: // line 5
		cell := t.cellIndex(pop)
		t.oldS = *a.at(cell)
		boundary := t.oldS == arraydeque.Null // pop: maybe empty
		if !pop {
			boundary = t.oldS != arraydeque.Null // push: maybe full
		}
		switch {
		case !boundary:
			t.saveI = t.oldI
			t.pc = a.dcasPC(t, false)
		case a.recheck:
			t.pc = apcRecheck
		default:
			t.pc = a.dcasPC(t, true)
		}
		return fmt.Sprintf("%v: read S[%d]=%d", op, cell, t.oldS), nil

	case apcRecheck: // line 7
		cur := a.endRead(i)
		if cur == t.oldI {
			t.pc = a.dcasPC(t, true)
		} else {
			t.pc = apcReadIdx
		}
		return fmt.Sprintf("%v: recheck %s=%d", op, side, cur), nil

	case apcEmptyDCAS: // lines 8-10: confirm boundary with DCAS
		cell := t.cellIndex(pop)
		if idx() == t.oldI && *a.at(cell) == t.oldS {
			// Successful DCAS writing back identical values.
			if pop {
				return fmt.Sprintf("%v: empty-DCAS ok", op), fin(0, spec.Empty)
			}
			return fmt.Sprintf("%v: full-DCAS ok", op), fin(0, spec.Full)
		}
		t.pc = apcReadIdx
		return fmt.Sprintf("%v: boundary-DCAS failed", op), nil

	case apcValueDCAS: // lines 13-18: strong DCAS
		cell := t.cellIndex(pop)
		curI, curS := idx(), *a.at(cell)
		if curI == t.oldI && curS == t.oldS {
			setIdx(t.newI)
			if pop {
				*a.at(cell) = arraydeque.Null
				return fmt.Sprintf("%v: pop-DCAS ok -> %d", op, t.oldS), fin(t.oldS, spec.Okay)
			}
			*a.at(cell) = op.Arg
			return fmt.Sprintf("%v: push-DCAS ok", op), fin(0, spec.Okay)
		}
		// Failed strong DCAS: an atomic view (curI, curS) is returned.
		// With the weak form (lines 17-18 deleted) the failure always
		// retries.
		if a.strong {
			if pop {
				if curI == t.saveI && curS == arraydeque.Null {
					// Lines 17-18: a competing pop on the other side stole
					// the last item (Figure 6); the deque was empty at
					// this DCAS.
					return fmt.Sprintf("%v: pop-DCAS failed, empty (steal)", op), fin(0, spec.Empty)
				}
			} else {
				if curI == t.saveI {
					// Line 17: index unchanged, so the cell was non-null:
					// full.
					return fmt.Sprintf("%v: push-DCAS failed, full", op), fin(0, spec.Full)
				}
			}
		}
		t.pc = apcReadIdx
		return fmt.Sprintf("%v: value-DCAS failed", op), nil
	}
	return a.stepEndLock(i, op, pop, side)
}

// stepEndLock executes one step of an expanded EndLock DCAS.  The DCAS is
// (R|L, S[c], o1=oldI, o2=oldS, n1, n2); a successful one linearizes at
// its cell CAS, and so do the boundary confirms and the push's line-17
// full return.  The pop's line-18 empty return linearizes at the a2 load
// under the mark, the instant its view is taken.  An operation that has
// linearized completes at its unmarking store.
func (a *arraySys) stepEndLock(i int, op OpSpec, pop bool, side string) (string, *Lin) {
	t := &a.threads[i]
	anchor := a.end(i)
	cell := t.cellIndex(pop)
	lin := func(val uint64, res spec.Result) *Lin {
		t.done = true
		return &Lin{Thread: i, Op: op, Val: val, Res: res}
	}
	view := a.strong && !t.confirm // DCASView: lines 13-18

	switch t.pc {
	case apcMark: // EndLock.mark
		if (t.oldI|t.n1())&dcas.EndLockBit != 0 {
			a.faultf("T%d %v: EndLock anchor value %#x uses EndLockBit", i, op, t.oldI)
		}
		cur := *anchor
		switch {
		case cur == t.oldI:
			*anchor = cur | dcas.EndLockBit
			t.held = true
			t.pc = apcCellCAS
			if a.bug == bugCommitFirst {
				t.pc = apcCommit
			}
			return fmt.Sprintf("%v: mark %s=%d", op, side, t.oldI), nil
		case cur&^dcas.EndLockBit == t.oldI:
			return fmt.Sprintf("%v: wait on marked %s", op, side), nil
		}
		// The anchor moved: the DCAS fails with v1 = the masked current
		// value, which differs from o1 = saveI, so the view is not acted
		// on (line 17) — but DCASView still loads a2 in a separate step.
		if view {
			t.pc = apcViewLoad
		} else {
			t.retry()
		}
		return fmt.Sprintf("%v: mark failed, %s=%d", op, side, cur&^dcas.EndLockBit), nil

	case apcViewLoad: // DCASView's a2 load after a failed mark: not atomic with v1
		v2 := *a.at(cell)
		t.retry()
		return fmt.Sprintf("%v: value-DCAS failed, view S[%d]=%d", op, cell, v2), nil

	case apcCellCAS: // a2.CAS(o2, n2): the DCAS's linearization point
		a.checkPinned(i, "cell CAS")
		if *a.at(cell) == t.oldS {
			*a.at(cell) = t.n2(op, pop)
			t.won = true
			t.pc = apcCommit
			var l *Lin
			var label string
			switch {
			case t.confirm && pop:
				label, l = fmt.Sprintf("%v: empty-DCAS ok", op), lin(0, spec.Empty)
			case t.confirm:
				label, l = fmt.Sprintf("%v: full-DCAS ok", op), lin(0, spec.Full)
			case pop:
				label, l = fmt.Sprintf("%v: pop-DCAS ok -> %d", op, t.oldS), lin(t.oldS, spec.Okay)
			default:
				label, l = fmt.Sprintf("%v: push-DCAS ok", op), lin(0, spec.Okay)
			}
			if !t.held { // bugCommitFirst: the commit already ran
				t.complete()
			}
			return label, l
		}
		label := fmt.Sprintf("%v: cell CAS failed", op)
		var l *Lin
		switch {
		case !t.held: // bugCommitFirst
			t.retry()
			return label, nil
		case view && !pop:
			// Line 17: v1 is the pinned o1 = saveR, so the cell was
			// non-null at this CAS: full.
			label, l = fmt.Sprintf("%v: push-DCAS failed, full", op), lin(0, spec.Full)
			t.pc = apcMarkedLoad
		case view:
			t.pc = apcMarkedLoad
		default:
			t.pc = apcRestore
		}
		if t.pc == apcRestore && a.bug == bugSkipRestore {
			t.unmarked()
		}
		return label, l

	case apcMarkedLoad: // DCASView's a2 load under the mark: atomic with v1 = o1
		a.checkPinned(i, "view load")
		v2 := *a.at(cell)
		t.pc = apcRestore
		var l *Lin
		label := fmt.Sprintf("%v: view S[%d]=%d under the mark", op, cell, v2)
		if pop && v2 == arraydeque.Null {
			// Lines 17-18: R unchanged and S[R-1] null — a competing pop
			// on the other side stole the last item (Figure 6).
			label, l = fmt.Sprintf("%v: pop-DCAS failed, empty (steal)", op), lin(0, spec.Empty)
		}
		if a.bug == bugSkipRestore {
			t.unmarked()
		}
		return label, l

	case apcCommit, apcRestore: // a1.Store(n1) or a1.Store(o1): unmark
		a.checkPinned(i, "unmarking store")
		v, what := t.oldI, "restore"
		if t.pc == apcCommit {
			v, what = t.n1(), "commit"
		}
		*anchor = v
		t.held = false
		if t.pc == apcCommit && !t.won { // bugCommitFirst: the cell CAS is still to come
			t.pc = apcCellCAS
		} else {
			t.unmarked()
		}
		return fmt.Sprintf("%v: %s %s=%d", op, what, side, v), nil
	}
	panic("arraySys: invalid pc")
}

// checkPinned records a fault unless thread i holds its anchor's mark
// and the anchor is still pinned at o1: the condition under which EndLock
// performs a cell CAS, a view load or an unmarking store.
func (a *arraySys) checkPinned(i int, what string) {
	t := &a.threads[i]
	if w := *a.end(i); !t.held || w != t.oldI|dcas.EndLockBit {
		a.faultf("T%d %v: %s while the anchor is %#x, not pinned at %d by this thread",
			i, t.prog[t.opi], what, w, t.oldI)
	}
}

// at returns cell c of S.  An index outside S — what an end read that
// kept EndLock's mark bit computes — is a fault, and reads a null word.
func (a *arraySys) at(c uint64) *uint64 {
	if c >= uint64(a.n) {
		a.faultf("cell index %#x outside S[0,%d)", c, a.n)
		return new(uint64)
	}
	return &a.s[c]
}

func (a *arraySys) faultf(format string, args ...any) {
	if a.fault == "" {
		a.fault = fmt.Sprintf(format, args...)
	}
}

// cellIndex returns the array cell the current op addresses: S[newI] for
// pops (the cell inward of the end pointer), S[oldI] for pushes.
func (t *arrayThread) cellIndex(pop bool) uint64 {
	if pop {
		return t.newI
	}
	return t.oldI
}

// n1 is the anchor value the in-flight DCAS commits: the moved end for
// the value DCAS, the unchanged one for the boundary confirm.
func (t *arrayThread) n1() uint64 {
	if t.confirm {
		return t.oldI
	}
	return t.newI
}

// n2 is the cell value the in-flight DCAS writes.
func (t *arrayThread) n2(op OpSpec, pop bool) uint64 {
	switch {
	case t.confirm:
		return t.oldS
	case pop:
		return arraydeque.Null
	}
	return op.Arg
}

// unmarked ends a DCAS whose mark is released (or, under
// bugSkipRestore, abandoned): the operation completes if it has
// linearized and retries otherwise.
func (t *arrayThread) unmarked() {
	t.held = false
	if t.done {
		t.complete()
	} else {
		t.retry()
	}
}

// complete finishes the current operation.
func (t *arrayThread) complete() {
	t.opi++
	t.retry()
}

// retry clears the registers and restarts at line 3.
func (t *arrayThread) retry() {
	prog, opi := t.prog, t.opi
	*t = arrayThread{prog: prog, opi: opi, pc: apcReadIdx}
}
