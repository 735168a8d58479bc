package deque

import (
	"errors"
	"sync"
	"testing"
)

// batchBackends enumerates every public constructor for the batch-pop
// table tests; mk builds a fresh deque per case so no case sees another's
// leftovers.  canPushLeft is false for Chase–Lev, whose left end is
// steal-only (PushLeft returns ErrUnsupported).
var batchBackends = []struct {
	name        string
	mk          func() Deque[int]
	canPushLeft bool
}{
	{"array", func() Deque[int] { return NewArray[int](1024, WithTelemetry()) }, true},
	{"list", func() Deque[int] { return NewList[int](WithTelemetry()) }, true},
	{"list-dummy", func() Deque[int] { return NewList[int](WithDummyNodes(), WithTelemetry()) }, true},
	{"list-lfrc", func() Deque[int] { return NewList[int](WithLFRC(), WithTelemetry()) }, true},
	{"mutex", func() Deque[int] { return NewMutex[int](1024, WithTelemetry()) }, true},
	{"chaselev", func() Deque[int] { return NewChaseLev[int](WithTelemetry()) }, false},
}

// seed fills the deque so it reads vals left-to-right, feeding the left
// end where the backend supports it so both feed paths are exercised.
func seed(t *testing.T, d Deque[int], canPushLeft bool, vals []int) {
	t.Helper()
	if canPushLeft {
		for i := len(vals) - 1; i >= 0; i-- {
			if err := d.PushLeft(vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, v := range vals {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPopManyTable checks PopLMany/PopRMany ordering, max clamping and
// the max ≤ 0 and empty-deque edge cases across every backend.
func TestPopManyTable(t *testing.T) {
	cases := []struct {
		name string
		seed []int
		left bool // PopLMany when true, PopRMany when false
		max  int
		want []int
	}{
		{"L-order", seq(10), true, 4, []int{0, 1, 2, 3}},
		{"R-order", seq(10), false, 4, []int{9, 8, 7, 6}},
		{"L-clamp", seq(3), true, 100, []int{0, 1, 2}},
		{"R-clamp", seq(3), false, 100, []int{2, 1, 0}},
		{"L-zero", seq(3), true, 0, nil},
		{"R-zero", seq(3), false, 0, nil},
		{"L-negative", seq(3), true, -3, nil},
		{"R-negative", seq(3), false, -3, nil},
		{"L-empty", nil, true, 8, nil},
		{"R-empty", nil, false, 8, nil},
	}
	for _, b := range batchBackends {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				d := b.mk()
				seed(t, d, b.canPushLeft, tc.seed)
				op, got := "PopLMany", []int(nil)
				if tc.left {
					got = d.PopLMany(tc.max)
				} else {
					op, got = "PopRMany", d.PopRMany(tc.max)
				}
				if !equal(got, tc.want) {
					t.Fatalf("%s(%d) = %v, want %v", op, tc.max, got, tc.want)
				}
			})
		}
	}
}

// TestPopManyResidue checks a batch pop leaves the remaining elements
// popping in order from both ends.
func TestPopManyResidue(t *testing.T) {
	for _, b := range batchBackends {
		t.Run(b.name, func(t *testing.T) {
			d := b.mk()
			seed(t, d, b.canPushLeft, seq(10))
			if got, want := d.PopLMany(4), []int{0, 1, 2, 3}; !equal(got, want) {
				t.Fatalf("PopLMany(4) = %v, want %v", got, want)
			}
			if v, err := d.PopLeft(); err != nil || v != 4 {
				t.Fatalf("PopLeft after batch = %d, %v; want 4", v, err)
			}
			if v, err := d.PopRight(); err != nil || v != 9 {
				t.Fatalf("PopRight after batch = %d, %v; want 9", v, err)
			}
		})
	}
}

// TestChaseLevPushLeftUnsupported pins the documented contract: PushLeft
// fails with ErrUnsupported and leaves the deque untouched.
func TestChaseLevPushLeftUnsupported(t *testing.T) {
	d := NewChaseLev[int]()
	if err := d.PushLeft(1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("PushLeft = %v, want ErrUnsupported", err)
	}
	if _, err := d.PopLeft(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("deque not empty after rejected PushLeft: %v", err)
	}
}

// TestChaseLevPopLManyLarge takes 64 of 100 items in one steal batch:
// the 64 leftmost in order, then the remaining 36.
func TestChaseLevPopLManyLarge(t *testing.T) {
	d := NewChaseLev[int]()
	for i := 0; i < 100; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.PopLMany(64); !equal(got, seq(64)) {
		t.Fatalf("PopLMany(64) = %v, want the 64 leftmost in order", got)
	}
	rest := d.PopLMany(64)
	if len(rest) != 36 {
		t.Fatalf("second PopLMany(64) = %d items, want 36", len(rest))
	}
	for i, v := range rest {
		if v != 64+i {
			t.Fatalf("rest[%d] = %d, want %d", i, v, 64+i)
		}
	}
}

// TestPopManyBeyondChunk drains a population larger than the up-front
// chunk in one call: the mutex's chunked refill, and the other
// backends' growth past the initial capacity.
func TestPopManyBeyondChunk(t *testing.T) {
	const n = popManyChunk*2 + 17
	for name, d := range map[string]Deque[int]{
		"list":     NewList[int](),
		"mutex":    NewMutex[int](n, WithTelemetry()),
		"chaselev": NewChaseLev[int](),
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < n; i++ {
				if err := d.PushRight(i); err != nil {
					t.Fatal(err)
				}
			}
			got := d.PopLMany(n)
			if len(got) != n {
				t.Fatalf("PopLMany(%d) returned %d elements", n, len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("got[%d] = %d, want %d", i, v, i)
				}
			}
		})
	}
}

// TestPopManyConcurrent races a batch-stealing thief against an owner
// pushing and popping its own right end; every pushed value must be
// consumed exactly once between the two.  The access pattern — one owner
// on the right, one thief on the left — satisfies every backend's
// contract, including Chase–Lev's owner-only right end.
func TestPopManyConcurrent(t *testing.T) {
	for _, b := range batchBackends {
		t.Run(b.name, func(t *testing.T) {
			d := b.mk()
			const total = 20000
			seen := make([]int32, total)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // owner: push all, pop some of its own
				defer wg.Done()
				for i := 0; i < total; i++ {
					for d.PushRight(i) != nil {
						// Full (the thief may already be done): make room
						// by consuming own work instead of spinning.
						if v, err := d.PopRight(); err == nil {
							seen[v]++
						}
					}
					if i%3 == 0 {
						if v, err := d.PopRight(); err == nil {
							seen[v]++
						}
					}
				}
			}()
			var stolen []int
			go func() { // thief: batch-steal from the left
				defer wg.Done()
				for i := 0; i < total; i++ {
					stolen = append(stolen, d.PopLMany(1+i%7)...)
				}
			}()
			wg.Wait()
			for _, v := range stolen {
				seen[v]++
			}
			for len(stolen) < total { // drain the remainder
				rest := d.PopLMany(64)
				if rest == nil {
					break
				}
				stolen = append(stolen, rest...)
				for _, v := range rest {
					seen[v]++
				}
			}
			// Conservation: every value consumed exactly once overall.
			var consumed int
			for v, c := range seen {
				if c > 1 {
					t.Fatalf("value %d consumed %d times", v, c)
				}
				consumed += int(c)
			}
			rem, err := d.(interface{ Items() ([]int, error) }).Items()
			if err != nil {
				t.Fatal(err)
			}
			if consumed+len(rem) != total {
				t.Fatalf("conservation: consumed %d + remaining %d ≠ %d",
					consumed, len(rem), total)
			}
		})
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
