package chaselev

import "fmt"

// This file is the certification counterpart of the proof artifacts the
// DCAS cores carry: a representation invariant and abstraction function
// in the Wing & Gong style, checked by enumeration in the model checker
// (internal/verify/model) and after every operation in the unit tests.
// Chase & Lev prove their deque's safety from two facts this file makes
// executable: top never exceeds bottom by more than the transient
// owner-pop dip, and the live logical window [top, bottom) always fits
// the current ring.

// Snapshot is an instantaneous view of the implementation state: the two
// logical indices and the live cells.  Snapshots are
// meaningful only when taken without concurrent operations (tests, model
// checking).
type Snapshot struct {
	Top    int64
	Bottom int64
	// RingSize is the current ring's cell count.
	RingSize int64
	// Grows is the ring-doubling total.
	Grows uint64
	// Cells are the live cells, Cells[i] holding logical index Top+i.
	Cells []uint64
}

// Snapshot copies the current implementation state.  It must only be
// called while no operations are in flight.
func (d *Deque) Snapshot() Snapshot {
	t := d.top.Load()
	b := d.bottom.Load()
	a := d.array.Load()
	st := Snapshot{Top: t, Bottom: b, RingSize: a.size(), Grows: d.grows.Load()}
	for i := t; i < b; i++ {
		st.Cells = append(st.Cells, a.get(i))
	}
	return st
}

// RepInv checks the representation invariant on a quiescent snapshot:
// the live window [Top, Bottom) is well-formed (Top ≤ Bottom — the
// owner's transient bottom dip is never visible at quiescence), fits the
// ring, and holds no null cells.
func RepInv(st Snapshot) error {
	size := st.Bottom - st.Top
	if size < 0 {
		return fmt.Errorf("RepInv/window: top=%d exceeds bottom=%d at quiescence", st.Top, st.Bottom)
	}
	if size > st.RingSize {
		return fmt.Errorf("RepInv/fit: %d live items exceed the %d-cell ring", size, st.RingSize)
	}
	if int64(len(st.Cells)) != size {
		return fmt.Errorf("RepInv/cells: snapshot carries %d cells for a %d-item window", len(st.Cells), size)
	}
	for i, c := range st.Cells {
		if c == Null {
			return fmt.Errorf("RepInv/content: live cell at logical index %d is null", st.Top+int64(i))
		}
	}
	return nil
}

// Abstract applies the abstraction function to a quiescent snapshot,
// returning the abstract deque value left to right: logical index Top is
// the leftmost (next-stolen) item, Bottom-1 the rightmost (next-popped).
func Abstract(st Snapshot) ([]uint64, error) {
	if err := RepInv(st); err != nil {
		return nil, err
	}
	if len(st.Cells) == 0 {
		return nil, nil
	}
	items := make([]uint64, len(st.Cells))
	copy(items, st.Cells)
	return items, nil
}

// CheckRepInv verifies the representation invariant on the deque's
// current state.  Quiescence is the caller's responsibility.
func (d *Deque) CheckRepInv() error { return RepInv(d.Snapshot()) }

// Items returns the abstract value of the deque (left to right).  It
// must only be called while no operations are in flight.
func (d *Deque) Items() ([]uint64, error) { return Abstract(d.Snapshot()) }
