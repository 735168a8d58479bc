package model

import (
	"fmt"
	"strings"

	"dcasdeque/internal/core/chaselev"
	"dcasdeque/internal/spec"
)

// chaselevSys is the checker's model of the Chase–Lev backend
// (internal/core/chaselev): shared memory is the top index, the bottom
// index and a logically-indexed cell array; thread 0 is the deque's
// owner, every other thread a thief.
//
// Granularity choices, and what they certify:
//
//   - Thieves run at FULL granularity: the top read, the bottom read,
//     the cell read and the claim CAS are separate atomic steps, so
//     every stale-read/late-CAS interleaving against the owner and
//     against other thieves is enumerated — a thief whose claim races
//     the owner's last-item pop, two claims racing for one index, a
//     claim built on a cell that was popped and re-pushed in between.
//   - The owner's PopRight is ONE atomic step (the bottom store, top
//     read and last-item CAS fused).  This is deliberate: during the
//     real algorithm's transient window — bottom published as b but the
//     one-element race unresolved — a thief's Empty return has NO fixed
//     linearization point (the history linearizes only by ordering the
//     concurrent owner pop first), so a fixed-point checker at full
//     owner granularity rejects histories that are in fact
//     linearizable.  The fused step removes the transient window while
//     preserving what the model must certify — the commit-order
//     arbitration between the owner's pop and every in-flight steal.
//     The owner-granular interleavings the fusion hides are covered by
//     the windowed linearizability stress (dequestress -impl chaselev),
//     whose checker searches all orderings instead of fixing points.
//   - Growth is not modelled: the cell array is logically indexed and
//     big enough for the scenario (the model checks index protocol, not
//     storage management; grow correctness is unit- and race-tested).
//
// The owner's push stays two-step (cell write, then the bottom-store
// linearization) because that window is unproblematic: the written cell
// is outside the abstraction until the store publishes it.
type chaselevSys struct {
	top     int64
	bottom  int64
	cells   []uint64
	threads []clThread
}

// Thread program counters (owner ops never block mid-operation except
// the push's two steps, tracked by the same pc field).
const (
	clpcStart    = iota // next shared access is the first of the op
	clpcPushCell        // owner push: cell written, bottom store pending
	clpcReadBot         // thief: top read done, bottom read pending
	clpcReadCell        // thief: bottom read done, cell read pending
	clpcClaim           // thief: cell read, claim CAS pending
)

type clThread struct {
	prog []OpSpec
	opi  int
	pc   int
	// thief registers: the top index it read and the cell it copied.
	rTop int64
	rVal uint64
}

// NewChaseLevSys builds a Chase–Lev model with the given initial items
// (left to right) and one thread per program.  progs[0] is the OWNER
// and may contain PushRight and PopRight; all other programs are
// thieves and may contain only PopLeft.
func NewChaseLevSys(initial []uint64, progs [][]OpSpec) Sys {
	if len(progs) == 0 {
		panic("model: need at least the owner program")
	}
	// Size the logical array for everything the scenario can push.
	max := len(initial)
	for _, p := range progs {
		max += len(p)
	}
	sys := &chaselevSys{cells: make([]uint64, max+1)}
	for i, v := range initial {
		if v == 0 {
			panic("model: initial item cannot be null")
		}
		sys.cells[i] = v
	}
	sys.bottom = int64(len(initial))
	for ti, p := range progs {
		for _, op := range p {
			switch {
			case ti == 0 && (op.Kind == PushRight || op.Kind == PopRight):
			case ti != 0 && op.Kind == PopLeft:
			default:
				panic(fmt.Sprintf("model: thread %d may not run %v (owner is thread 0)", ti, op.Kind))
			}
		}
		sys.threads = append(sys.threads, clThread{prog: p, pc: clpcStart})
	}
	return sys
}

func (c *chaselevSys) Clone() Sys {
	n := &chaselevSys{top: c.top, bottom: c.bottom}
	n.cells = append([]uint64(nil), c.cells...)
	n.threads = append([]clThread(nil), c.threads...) // prog is immutable, shared
	return n
}

func (c *chaselevSys) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d|", c.top, c.bottom)
	for _, v := range c.cells {
		fmt.Fprintf(&b, "%d,", v)
	}
	for _, t := range c.threads {
		fmt.Fprintf(&b, "|%d,%d,%d,%d", t.opi, t.pc, t.rTop, t.rVal)
	}
	return b.String()
}

func (c *chaselevSys) NumThreads() int { return len(c.threads) }

func (c *chaselevSys) Done(i int) bool { return c.threads[i].opi >= len(c.threads[i].prog) }

// OpsRemaining implements the soloCounter used by the non-blocking check.
func (c *chaselevSys) OpsRemaining(i int) int { return len(c.threads[i].prog) - c.threads[i].opi }

func (c *chaselevSys) Capacity() int { return spec.Unbounded }

// SoloBound: a solo thief may first have to finish a doomed in-flight
// attempt (at most its bottom read, cell read and failing CAS — top
// moved before it was left alone), then completes a fresh attempt — top
// read, bottom read, cell read, CAS.  Seven steps, plus one of slack;
// the owner finishes in at most two.
func (c *chaselevSys) SoloBound() int { return 8 }

func (c *chaselevSys) Abstract() ([]uint64, error) {
	st := chaselev.Snapshot{Top: c.top, Bottom: c.bottom, RingSize: int64(len(c.cells))}
	for i := c.top; i < c.bottom; i++ {
		st.Cells = append(st.Cells, c.cells[i])
	}
	return chaselev.Abstract(st)
}

// Step executes one atomic action of thread i.
func (c *chaselevSys) Step(i int, absEmpty bool) (string, *Lin) {
	t := &c.threads[i]
	op := t.prog[t.opi]
	fin := func(val uint64, res spec.Result) *Lin {
		lin := &Lin{Thread: i, Op: op, Val: val, Res: res}
		t.opi++
		t.pc = clpcStart
		t.rTop, t.rVal = 0, 0
		return lin
	}

	if i == 0 {
		return c.ownerStep(t, op, fin)
	}

	switch t.pc {
	case clpcStart: // read top
		t.rTop = c.top
		t.pc = clpcReadBot
		return fmt.Sprintf("%v: read top=%d", op, t.rTop), nil

	case clpcReadBot: // read bottom; decide size
		b := c.bottom
		if b-t.rTop <= 0 {
			// Empty commits here: bottom is read NOW, and the current top
			// is ≥ the one read earlier, so the deque is empty at this
			// very step (monotone top makes the stale top read harmless).
			return fmt.Sprintf("%v: read bottom=%d, empty", op, b), fin(0, spec.Empty)
		}
		t.pc = clpcReadCell
		return fmt.Sprintf("%v: read bottom=%d", op, b), nil

	case clpcReadCell: // copy the cell at the index read from top
		t.rVal = c.cells[t.rTop]
		t.pc = clpcClaim
		return fmt.Sprintf("%v: read cell[%d]=%d", op, t.rTop, t.rVal), nil

	case clpcClaim: // CAS(top, t, t+1)
		if c.top == t.rTop {
			c.top++
			return fmt.Sprintf("%v: steal-CAS ok -> %d", op, t.rVal), fin(t.rVal, spec.Okay)
		}
		t.pc = clpcStart
		t.rTop, t.rVal = 0, 0
		return fmt.Sprintf("%v: steal-CAS failed", op), nil
	}
	panic("chaselevSys: invalid thief pc")
}

// ownerStep: thread 0's actions.
func (c *chaselevSys) ownerStep(t *clThread, op OpSpec, fin func(uint64, spec.Result) *Lin) (string, *Lin) {
	switch op.Kind {
	case PushRight:
		if t.pc == clpcStart {
			// Write the cell at the unpublished index: outside the
			// abstraction until the bottom store.
			c.cells[c.bottom] = op.Arg
			t.pc = clpcPushCell
			return fmt.Sprintf("%v: write cell[%d]", op, c.bottom), nil
		}
		c.bottom++
		return fmt.Sprintf("%v: store bottom=%d", op, c.bottom), fin(0, spec.Okay)

	case PopRight:
		// One fused atomic step; see the type comment for why.
		b := c.bottom - 1
		switch {
		case c.top > b:
			return fmt.Sprintf("%v: empty (top=%d)", op, c.top), fin(0, spec.Empty)
		case c.top < b:
			c.bottom = b
			return fmt.Sprintf("%v: plain take cell[%d]", op, b), fin(c.cells[b], spec.Okay)
		default:
			// One-element race, won by the owner's CAS on top: every
			// in-flight steal of this index now fails its CAS.
			c.top++
			return fmt.Sprintf("%v: last-item CAS -> %d", op, c.cells[b]), fin(c.cells[b], spec.Okay)
		}
	}
	panic("chaselevSys: owner op " + op.Kind.String())
}
