package arraydeque

import (
	"math/rand/v2"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
)

// variants returns one constructor per algorithm configuration so every
// test runs across the option matrix: the DCAS providers crossed with the
// two optional optimizations of Section 3.
func variants() map[string]func(n int) *Deque {
	twoLock := func(opts ...Option) []Option {
		return append([]Option{WithProvider(new(dcas.TwoLock))}, opts...)
	}
	return map[string]func(n int) *Deque{
		"EndLock/strong/recheck": func(n int) *Deque {
			return New(n) // the default provider
		},
		"EndLock/strong/norecheck": func(n int) *Deque {
			return New(n, WithRecheckIndex(false))
		},
		"EndLock/weak/recheck": func(n int) *Deque {
			return New(n, WithStrongDCAS(false))
		},
		"EndLock/weak/norecheck": func(n int) *Deque {
			return New(n, WithStrongDCAS(false), WithRecheckIndex(false))
		},
		"TwoLock/strong/recheck": func(n int) *Deque {
			return New(n, twoLock()...)
		},
		"TwoLock/strong/norecheck": func(n int) *Deque {
			return New(n, twoLock(WithRecheckIndex(false))...)
		},
		"TwoLock/weak/recheck": func(n int) *Deque {
			return New(n, twoLock(WithStrongDCAS(false))...)
		},
		"TwoLock/weak/norecheck": func(n int) *Deque {
			return New(n, twoLock(WithStrongDCAS(false), WithRecheckIndex(false))...)
		},
		"GlobalLock/strong/recheck": func(n int) *Deque {
			return New(n, WithProvider(new(dcas.GlobalLock)))
		},
		"GlobalLock/weak/norecheck": func(n int) *Deque {
			return New(n, WithProvider(new(dcas.GlobalLock)),
				WithStrongDCAS(false), WithRecheckIndex(false))
		},
	}
}

// TestDefaultProviderIsEndLock pins the array core's default DCAS
// emulation: the model-checked EndLock, held as its concrete type so the
// operations take the inlined fast path.
func TestDefaultProviderIsEndLock(t *testing.T) {
	if d := New(4); d.el == nil {
		t.Fatalf("default provider is %T, want *dcas.EndLock", d.prov)
	}
	if d := New(4, WithProvider(new(dcas.TwoLock))); d.el != nil {
		t.Fatal("an explicit TwoLock was replaced by EndLock")
	}
}

func mustItems(t *testing.T, d *Deque) []uint64 {
	t.Helper()
	items, err := d.Items()
	if err != nil {
		t.Fatalf("abstraction undefined: %v", err)
	}
	return items
}

func checkInv(t *testing.T, d *Deque) {
	t.Helper()
	if err := d.CheckRepInv(); err != nil {
		t.Fatalf("representation invariant violated: %v", err)
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic; spec requires length_S ≥ 1")
		}
	}()
	New(0)
}

func TestPushNullPanics(t *testing.T) {
	d := New(4)
	for _, left := range []bool{false, true} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push(left=%v) of null did not panic", left)
				}
			}()
			if left {
				d.PushLeft(Null)
			} else {
				d.PushRight(Null)
			}
		}()
	}
}

// TestInitialStateIsFig4Empty checks the initial layout of Figure 4 (top):
// L == 0, R == 1 mod n, all cells null, abstraction = empty.
func TestInitialStateIsFig4Empty(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		d := New(n)
		st := d.Snapshot()
		if st.L != 0 || st.R != uint64(1%n) {
			t.Fatalf("n=%d: initial L=%d R=%d, want 0 and %d", n, st.L, st.R, 1%n)
		}
		for i, c := range st.Cells {
			if c != Null {
				t.Fatalf("n=%d: initial cell %d = %d, want null", n, i, c)
			}
		}
		checkInv(t, d)
		if items := mustItems(t, d); len(items) != 0 {
			t.Fatalf("n=%d: initial abstraction %v, want empty", n, items)
		}
	}
}

func TestPopOnEmpty(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			d := mk(3)
			if v, r := d.PopRight(); r != spec.Empty || v != 0 {
				t.Fatalf("popRight on empty = (%d, %v)", v, r)
			}
			if v, r := d.PopLeft(); r != spec.Empty || v != 0 {
				t.Fatalf("popLeft on empty = (%d, %v)", v, r)
			}
			checkInv(t, d)
		})
	}
}

// TestFillToFullIsFig4Full fills the deque from the right and checks the
// Figure 4 (bottom) full state: every cell non-null, pushes report Full,
// and the RepInv FullQueue disjunct holds (R == L+1 mod n with all cells
// occupied).
func TestFillToFullIsFig4Full(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			const n = 6
			d := mk(n)
			for i := 1; i <= n; i++ {
				if r := d.PushRight(uint64(i)); r != spec.Okay {
					t.Fatalf("push %d = %v", i, r)
				}
				checkInv(t, d)
			}
			st := d.Snapshot()
			if st.R != (st.L+1)%n {
				t.Fatalf("full deque: R=%d L=%d, want R == L+1 mod n", st.R, st.L)
			}
			for i, c := range st.Cells {
				if c == Null {
					t.Fatalf("full deque has null cell %d", i)
				}
			}
			if r := d.PushRight(99); r != spec.Full {
				t.Fatalf("pushRight on full = %v", r)
			}
			if r := d.PushLeft(99); r != spec.Full {
				t.Fatalf("pushLeft on full = %v", r)
			}
			want := []uint64{1, 2, 3, 4, 5, 6}
			got := mustItems(t, d)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("items %v, want %v", got, want)
				}
			}
		})
	}
}

// TestFig5PopRight reproduces Figure 5: a successful popRight removes the
// rightmost item, decrements R (mod n), and nulls the vacated cell.
func TestFig5PopRight(t *testing.T) {
	d := New(8)
	for i := 1; i <= 3; i++ {
		d.PushRight(uint64(i))
	}
	before := d.Snapshot()
	v, r := d.PopRight()
	if r != spec.Okay || v != 3 {
		t.Fatalf("popRight = (%d, %v), want (3, okay)", v, r)
	}
	after := d.Snapshot()
	if after.R != (before.R+8-1)%8 {
		t.Fatalf("R: %d -> %d, want decrement", before.R, after.R)
	}
	if after.Cells[after.R] != Null {
		t.Fatalf("vacated cell %d not nulled", after.R)
	}
	if after.L != before.L {
		t.Fatalf("popRight moved L: %d -> %d", before.L, after.L)
	}
	checkInv(t, d)
}

// TestFig7PushRightIntoEmpty reproduces Figure 7: a successful pushRight
// into an empty deque stores the value at the old R and increments R.
func TestFig7PushRightIntoEmpty(t *testing.T) {
	d := New(8)
	before := d.Snapshot()
	if r := d.PushRight(41); r != spec.Okay {
		t.Fatalf("pushRight = %v", r)
	}
	after := d.Snapshot()
	if after.Cells[before.R] != 41 {
		t.Fatalf("cell at old R=%d holds %d, want 41", before.R, after.Cells[before.R])
	}
	if after.R != (before.R+1)%8 {
		t.Fatalf("R: %d -> %d, want increment", before.R, after.R)
	}
	checkInv(t, d)
}

// TestFig8FillingTheArray replays the exact Figure 8 sequence: an
// almost-full deque receives a pushLeft (leaving one free cell) and then a
// pushRight (yielding a full deque), demonstrating that L wraps around
// "to-the-right" of R and the two indices cross again when full.
func TestFig8FillingTheArray(t *testing.T) {
	const n = 14 // the figure draws 14 cells
	d := New(n)
	// Build the "almost full" state: n-2 items pushed from the right.
	for i := 1; i <= n-2; i++ {
		if r := d.PushRight(uint64(i)); r != spec.Okay {
			t.Fatalf("setup push %d = %v", i, r)
		}
	}
	st := d.Snapshot()
	// Two free cells remain; in index terms L is now "behind" R circularly.
	free := 0
	for _, c := range st.Cells {
		if c == Null {
			free++
		}
	}
	if free != 2 {
		t.Fatalf("almost-full state has %d free cells, want 2", free)
	}

	// "Left push leaves only one free cell".
	if r := d.PushLeft(100); r != spec.Okay {
		t.Fatalf("pushLeft = %v", r)
	}
	st = d.Snapshot()
	free = 0
	for _, c := range st.Cells {
		if c == Null {
			free++
		}
	}
	if free != 1 {
		t.Fatalf("after pushLeft: %d free cells, want 1", free)
	}

	// "Right Push yields a full Deque".
	if r := d.PushRight(200); r != spec.Okay {
		t.Fatalf("pushRight = %v", r)
	}
	st = d.Snapshot()
	for i, c := range st.Cells {
		if c == Null {
			t.Fatalf("cell %d still null after filling", i)
		}
	}
	if st.R != (st.L+1)%n {
		t.Fatalf("full state: R=%d L=%d; indices did not cross", st.R, st.L)
	}
	checkInv(t, d)
	// Order: 100 at the far left, 200 at the far right.
	items := mustItems(t, d)
	if items[0] != 100 || items[len(items)-1] != 200 {
		t.Fatalf("items %v: ends should be 100 ... 200", items)
	}
	if r := d.PushRight(1); r != spec.Full {
		t.Fatalf("push on full = %v", r)
	}
}

func TestCapacityOne(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			d := mk(1)
			if r := d.PushRight(7); r != spec.Okay {
				t.Fatalf("push = %v", r)
			}
			if r := d.PushLeft(8); r != spec.Full {
				t.Fatalf("push on full capacity-1 = %v", r)
			}
			if v, r := d.PopLeft(); r != spec.Okay || v != 7 {
				t.Fatalf("pop = (%d, %v)", v, r)
			}
			if _, r := d.PopRight(); r != spec.Empty {
				t.Fatalf("pop on empty = %v", r)
			}
			checkInv(t, d)
		})
	}
}

// TestSection22Example replays the Section 2.2 example on the real
// implementation.
func TestSection22Example(t *testing.T) {
	d := New(10)
	d.PushRight(1)
	d.PushLeft(2)
	d.PushRight(3)
	if v, r := d.PopLeft(); r != spec.Okay || v != 2 {
		t.Fatalf("popLeft = (%d, %v), want 2", v, r)
	}
	if v, r := d.PopLeft(); r != spec.Okay || v != 1 {
		t.Fatalf("popLeft = (%d, %v), want 1", v, r)
	}
	items := mustItems(t, d)
	if len(items) != 1 || items[0] != 3 {
		t.Fatalf("final items %v, want [3]", items)
	}
}

// TestRandomDifferential drives long random programs against the
// sequential specification for every variant, checking results, the
// abstract state, and the representation invariant after every operation.
func TestRandomDifferential(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 5, 8} {
				rng := rand.New(rand.NewPCG(uint64(n), 0xabcdef))
				d := mk(n)
				ref := spec.New(n)
				next := uint64(1)
				for step := 0; step < 4000; step++ {
					switch rng.IntN(4) {
					case 0:
						got := d.PushLeft(next)
						want := ref.PushLeft(next)
						if got != want {
							t.Fatalf("n=%d step %d: pushLeft = %v, want %v", n, step, got, want)
						}
						next++
					case 1:
						got := d.PushRight(next)
						want := ref.PushRight(next)
						if got != want {
							t.Fatalf("n=%d step %d: pushRight = %v, want %v", n, step, got, want)
						}
						next++
					case 2:
						gv, gr := d.PopLeft()
						wv, wr := ref.PopLeft()
						if gr != wr || (gr == spec.Okay && gv != wv) {
							t.Fatalf("n=%d step %d: popLeft = (%d,%v), want (%d,%v)", n, step, gv, gr, wv, wr)
						}
					case 3:
						gv, gr := d.PopRight()
						wv, wr := ref.PopRight()
						if gr != wr || (gr == spec.Okay && gv != wv) {
							t.Fatalf("n=%d step %d: popRight = (%d,%v), want (%d,%v)", n, step, gv, gr, wv, wr)
						}
					}
					if err := d.CheckRepInv(); err != nil {
						t.Fatalf("n=%d step %d: %v", n, step, err)
					}
					items := mustItems(t, d)
					want := ref.Items()
					if len(items) != len(want) {
						t.Fatalf("n=%d step %d: items %v, want %v", n, step, items, want)
					}
					for i := range items {
						if items[i] != want[i] {
							t.Fatalf("n=%d step %d: items %v, want %v", n, step, items, want)
						}
					}
				}
			}
		})
	}
}

// TestIndexWrapStress pushes and pops through many full revolutions of the
// circular indices in both directions (FIFO use wraps fastest).
func TestIndexWrapStress(t *testing.T) {
	const n = 4
	const iters = 40*n + 1 // deliberately not a multiple of n
	d := New(n)
	// Rightward queue: push right, pop left.  Each iteration shifts both
	// indices one step clockwise, so the indices wrap many times.
	for i := 1; i <= iters; i++ {
		if r := d.PushRight(uint64(i)); r != spec.Okay {
			t.Fatalf("push %d: %v", i, r)
		}
		v, r := d.PopLeft()
		if r != spec.Okay || v != uint64(i) {
			t.Fatalf("pop %d: (%d, %v)", i, v, r)
		}
		checkInv(t, d)
	}
	st := d.Snapshot()
	if st.L != uint64(iters%n) {
		t.Fatalf("after %d rightward cycles L=%d, want %d", iters, st.L, iters%n)
	}
	// Leftward queue: push left, pop right.
	for i := 1; i <= iters; i++ {
		if r := d.PushLeft(uint64(i)); r != spec.Okay {
			t.Fatalf("push %d: %v", i, r)
		}
		v, r := d.PopRight()
		if r != spec.Okay || v != uint64(i) {
			t.Fatalf("pop %d: (%d, %v)", i, v, r)
		}
		checkInv(t, d)
	}
	st = d.Snapshot()
	if st.L != 0 || st.R != 1 {
		t.Fatalf("after symmetric cycles L=%d R=%d, want 0 1", st.L, st.R)
	}
}
