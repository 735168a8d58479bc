package chaselev

import (
	"sync"
	"testing"

	"dcasdeque/internal/spec"
	"dcasdeque/internal/telemetry"
)

// checkInv fails the test if the representation invariant is violated.
func checkInv(t *testing.T, d *Deque) {
	t.Helper()
	if err := d.CheckRepInv(); err != nil {
		t.Fatalf("RepInv: %v", err)
	}
}

func TestOwnerLIFO(t *testing.T) {
	d := New()
	for v := uint64(1); v <= 10; v++ {
		if r := d.PushRight(v); r != spec.Okay {
			t.Fatalf("PushRight(%d) = %v", v, r)
		}
		checkInv(t, d)
	}
	for v := uint64(10); v >= 1; v-- {
		h, r := d.PopRight()
		if r != spec.Okay || h != v {
			t.Fatalf("PopRight = (%d, %v), want (%d, Okay)", h, r, v)
		}
		checkInv(t, d)
	}
	if _, r := d.PopRight(); r != spec.Empty {
		t.Fatalf("PopRight on empty = %v, want Empty", r)
	}
	checkInv(t, d)
}

func TestStealFIFO(t *testing.T) {
	d := New()
	for v := uint64(1); v <= 10; v++ {
		d.PushRight(v)
	}
	for v := uint64(1); v <= 10; v++ {
		h, r := d.PopLeft()
		if r != spec.Okay || h != v {
			t.Fatalf("PopLeft = (%d, %v), want (%d, Okay)", h, r, v)
		}
		checkInv(t, d)
	}
	if _, r := d.PopLeft(); r != spec.Empty {
		t.Fatalf("PopLeft on empty = %v, want Empty", r)
	}
}

func TestOneElementRaceSequential(t *testing.T) {
	// The size==0 PopRight path: the owner must claim the last item
	// through the top CAS and restore bottom.
	d := New()
	d.PushRight(42)
	h, r := d.PopRight()
	if r != spec.Okay || h != 42 {
		t.Fatalf("PopRight = (%d, %v), want (42, Okay)", h, r)
	}
	checkInv(t, d)
	st := d.Snapshot()
	if st.Top != st.Bottom {
		t.Fatalf("after one-element pop: top=%d bottom=%d, want equal", st.Top, st.Bottom)
	}
	if _, r := d.PopLeft(); r != spec.Empty {
		t.Fatalf("PopLeft after one-element pop = %v, want Empty", r)
	}
}

func TestPushLeftUnsupported(t *testing.T) {
	d := New()
	if r := d.PushLeft(7); r != spec.Full {
		t.Fatalf("PushLeft = %v, want Full", r)
	}
	if err := d.CheckRepInv(); err != nil {
		t.Fatalf("PushLeft mutated the deque: %v", err)
	}
	if st := d.Snapshot(); len(st.Cells) != 0 {
		t.Fatalf("PushLeft stored something: %v", st.Cells)
	}
}

func TestGrow(t *testing.T) {
	d := New(WithRingLog(1)) // 2 cells: every few pushes must grow
	const n = 200
	for v := uint64(1); v <= n; v++ {
		d.PushRight(v)
		checkInv(t, d)
	}
	if d.Grows() == 0 {
		t.Fatal("no grows recorded after overfilling a 2-cell ring")
	}
	items, err := d.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n {
		t.Fatalf("%d items after %d pushes", len(items), n)
	}
	for i, v := range items {
		if v != uint64(i+1) {
			t.Fatalf("items[%d] = %d after grow, want %d", i, v, i+1)
		}
	}
	// Both ends still see the right order across ring generations.
	if h, _ := d.PopLeft(); h != 1 {
		t.Fatalf("PopLeft after grow = %d, want 1", h)
	}
	if h, _ := d.PopRight(); h != n {
		t.Fatalf("PopRight after grow = %d, want %d", h, n)
	}
}

func TestGrowMidWindow(t *testing.T) {
	// Interleave pops so the live window starts at a non-zero logical
	// index, then grow: the copy must translate indices, not positions.
	d := New(WithRingLog(2))
	next := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			d.PushRight(next)
			next++
		}
		if _, r := d.PopLeft(); r != spec.Okay {
			t.Fatalf("round %d: PopLeft failed", round)
		}
		checkInv(t, d)
	}
	items, err := d.Items()
	if err != nil {
		t.Fatal(err)
	}
	// 50 rounds × (3 pushes − 1 steal) = 100 items, and the steals took
	// 1..50 leftmost-first, so the window is exactly 51..150.
	if len(items) != 100 {
		t.Fatalf("%d items, want 100", len(items))
	}
	for i, v := range items {
		if v != uint64(51+i) {
			t.Fatalf("items[%d] = %d, want %d", i, v, 51+i)
		}
	}
}

func TestPopLeftMany(t *testing.T) {
	d := New(WithSpan(4))
	for v := uint64(1); v <= 10; v++ {
		d.PushRight(v)
	}
	// Clamped by the span (4), not the buffer (8) or the size (10).
	out := make([]uint64, 8)
	if n := d.PopLeftMany(out); n != 4 {
		t.Fatalf("PopLeftMany(8-buf) = %d, want span clamp 4", n)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if out[i] != want {
			t.Fatalf("batch[%d] = %d, want %d (leftmost first)", i, out[i], want)
		}
	}
	checkInv(t, d)
	// Clamped by the buffer.
	if n := d.PopLeftMany(out[:2]); n != 2 || out[0] != 5 || out[1] != 6 {
		t.Fatalf("PopLeftMany(2-buf) = %d %v, want 2 [5 6]", n, out[:2])
	}
	// Clamped by the remaining size, including taking the last element.
	if n := d.PopLeftMany(out); n != 4 || out[0] != 7 || out[3] != 10 {
		t.Fatalf("PopLeftMany(rest) = %d %v, want 4 [7..10]", n, out[:4])
	}
	if n := d.PopLeftMany(out); n != 0 {
		t.Fatalf("PopLeftMany(empty) = %d, want 0", n)
	}
	if n := d.PopLeftMany(nil); n != 0 {
		t.Fatalf("PopLeftMany(nil) = %d, want 0", n)
	}
	checkInv(t, d)
}

func TestPopRightMany(t *testing.T) {
	d := New()
	for v := uint64(1); v <= 5; v++ {
		d.PushRight(v)
	}
	out := make([]uint64, 3)
	if n := d.PopRightMany(out); n != 3 || out[0] != 5 || out[1] != 4 || out[2] != 3 {
		t.Fatalf("PopRightMany = %d %v, want 3 [5 4 3] (rightmost first)", n, out)
	}
	if n := d.PopRightMany(out); n != 2 || out[0] != 2 || out[1] != 1 {
		t.Fatalf("PopRightMany(rest) = %d %v, want 2 [2 1]", n, out[:2])
	}
	if n := d.PopRightMany(out); n != 0 {
		t.Fatalf("PopRightMany(empty) = %d, want 0", n)
	}
}

func TestTelemetry(t *testing.T) {
	sink := telemetry.NewSink()
	d := New(WithTelemetry(sink), WithRingLog(1))
	for v := uint64(1); v <= 8; v++ {
		d.PushRight(v)
	}
	d.PopRight()                     // owner take
	d.PopLeft()                      // steal
	d.PopLeftMany(make([]uint64, 3)) // batch steal: 3 pops in one CAS
	for {
		if _, r := d.PopRight(); r == spec.Empty {
			break
		}
	}
	d.PopLeft() // steal on empty

	sn := sink.Snapshot()
	l, r := sn.Ends[telemetry.Left], sn.Ends[telemetry.Right]
	if r[telemetry.Pushes] != 8 {
		t.Fatalf("right pushes = %d, want 8", r[telemetry.Pushes])
	}
	if r[telemetry.Pops] != 4 { // 1 + the 3 that drained the remainder
		t.Fatalf("right pops = %d, want 4", r[telemetry.Pops])
	}
	if l[telemetry.Pops] != 4 { // 1 single + 3 batched
		t.Fatalf("left pops = %d, want 4", l[telemetry.Pops])
	}
	if r[telemetry.EmptyHits] != 1 || l[telemetry.EmptyHits] != 1 {
		t.Fatalf("empty hits L=%d R=%d, want 1 and 1", l[telemetry.EmptyHits], r[telemetry.EmptyHits])
	}
	if r[telemetry.Grows] == 0 || r[telemetry.Grows] != d.Grows() {
		t.Fatalf("grows counter = %d, struct says %d", r[telemetry.Grows], d.Grows())
	}
	if l[telemetry.Grows] != 0 {
		t.Fatalf("left grows = %d, want 0 (grow is an owner-path event)", l[telemetry.Grows])
	}
}

// TestConcurrentConservation is the exactly-once core property under
// real contention: one owner pushing and popping, several thieves
// stealing singles and batches, every pushed value consumed exactly
// once across all parties.  Run under -race this also certifies the
// memory-model claims (plain bottom stores, frozen retired rings).
func TestConcurrentConservation(t *testing.T) {
	const (
		thieves = 3
		total   = 20000
	)
	d := New(WithRingLog(1), WithSpan(4)) // tiny ring + span: grow and boundary CAS constantly

	var stop sync.WaitGroup
	taken := make([][]uint64, 1+thieves) // [0] = owner, [1..] = thieves
	done := make(chan struct{})

	stop.Add(1)
	go func() { // the owner
		defer stop.Done()
		next := uint64(1)
		for next <= total {
			// Push a small burst, then pop a few back: keeps the window
			// short so thieves constantly contend the boundary.
			for i := 0; i < 5 && next <= total; i++ {
				d.PushRight(next)
				next++
			}
			for i := 0; i < 2; i++ {
				if h, r := d.PopRight(); r == spec.Okay {
					taken[0] = append(taken[0], h)
				}
			}
		}
		close(done)
	}()
	for i := 0; i < thieves; i++ {
		stop.Add(1)
		go func(i int) {
			defer stop.Done()
			buf := make([]uint64, 3)
			for {
				if i%2 == 0 {
					if h, r := d.PopLeft(); r == spec.Okay {
						taken[1+i] = append(taken[1+i], h)
					}
				} else if n := d.PopLeftMany(buf); n > 0 {
					taken[1+i] = append(taken[1+i], buf[:n]...)
				}
				select {
				case <-done:
					// Drain what the owner left behind, then exit.
					for {
						h, r := d.PopLeft()
						if r != spec.Okay {
							return
						}
						taken[1+i] = append(taken[1+i], h)
					}
				default:
				}
			}
		}(i)
	}
	stop.Wait()

	checkInv(t, d)
	seen := make(map[uint64]int, total)
	for _, part := range taken {
		for _, h := range part {
			seen[h]++
		}
	}
	rest, err := d.Items()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rest {
		seen[h]++
	}
	if len(seen) != total {
		t.Fatalf("conservation: %d distinct values consumed, want %d", len(seen), total)
	}
	for v := uint64(1); v <= total; v++ {
		if seen[v] != 1 {
			t.Fatalf("conservation: value %d consumed %d times", v, seen[v])
		}
	}
	// Per-thief steals must come out in increasing order: steals are
	// FIFO and a single thief's operations are sequential.
	for i := 1; i <= thieves; i++ {
		for j := 1; j < len(taken[i]); j++ {
			if taken[i][j] <= taken[i][j-1] {
				t.Fatalf("thief %d stole out of order: %d after %d", i-1, taken[i][j], taken[i][j-1])
			}
		}
	}
}

func TestPackUnpack(t *testing.T) {
	cases := []struct {
		idx   int64
		stamp uint64
	}{
		{0, 0}, {1, 1}, {int64(idxMask >> 1), 1 << 23}, {12345, (1 << 24) - 1},
	}
	for _, c := range cases {
		i, s := unpack(pack(c.idx, c.stamp))
		if i != c.idx || s != c.stamp {
			t.Fatalf("unpack(pack(%d,%d)) = (%d,%d)", c.idx, c.stamp, i, s)
		}
	}
	// The stamp wraps without bleeding into the index.
	if i, s := unpack(pack(7, 1<<24)); i != 7 || s != 0 {
		t.Fatalf("stamp wrap: got (%d,%d), want (7,0)", i, s)
	}
}
