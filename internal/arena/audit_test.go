package arena

import "testing"

// The audit tests seed the faults the derived-Live ledger cannot see on
// its own — a slot released twice, a release that loses one of its two
// halves — and check that the structural audit behind
// Occupancy.Conserved rejects each in both reclamation modes.  The
// Put/Take tests pin the one-lookup round trip's contract at its edges.

// mustReject fails the test unless o's audit reports a fault.
func mustReject(t *testing.T, o Occupancy) {
	t.Helper()
	if err := o.Conserved(); err == nil {
		t.Fatalf("audit accepted a seeded fault: %+v", o)
	} else {
		t.Log(err)
	}
}

// TestAuditRejectsDoubleFree frees one of two live slots twice.  The
// ledger then balances (allocs 2, releases 2, Live 0) although the other
// slot is still held, so only the structure shows the fault: the slot
// sits twice on the freelists (reuse mode) or its generation advanced
// twice for one count (gc mode).
func TestAuditRejectsDoubleFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reuse  bool
		second Lane
	}{
		{"reuse/same-lane", true, Left},
		{"reuse/cross-lane", true, Right},
		{"gc", false, Left},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New[int](16, WithBlockSize(4), WithReuse(tc.reuse))
			x, _ := a.Alloc(Left)
			if _, ok := a.Alloc(Left); !ok {
				t.Fatal("Alloc failed")
			}
			a.Free(Left, x)
			a.Free(tc.second, x)
			o := a.Occupancy()
			if o.Live != 0 {
				t.Fatalf("Live = %d; the seeded double free should balance the ledger", o.Live)
			}
			mustReject(t, o)
		})
	}
}

// TestAuditRejectsDroppedFree releases a slot through a path that drops
// one half of Free: the slot is counted free but never listed (a leak
// inside the allocator), or listed but never counted.
func TestAuditRejectsDroppedFree(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		for _, drop := range []string{"list", "count"} {
			name := "gc/" + drop
			if reuse {
				name = "reuse/" + drop
			}
			t.Run(name, func(t *testing.T) {
				a := New[int](16, WithBlockSize(4), WithReuse(reuse))
				x, _ := a.Alloc(Left)
				a.Alloc(Right)
				if err := a.Occupancy().Conserved(); err != nil {
					t.Fatalf("before the seeded fault: %v", err)
				}
				blk, off := a.locate(x)
				ln := a.lanes.at(Left)
				switch drop {
				case "list": // counted, never listed or retired
					if reuse {
						blk.gen[off].Add(1)
					}
					a.countFree(ln)
				case "count": // listed or retired, never counted
					blk.gen[off].Add(1)
					if reuse {
						a.pushFree(ln, x, blk, off)
					}
				}
				mustReject(t, a.Occupancy())
			})
		}
	}
}

// TestAuditRejectsUncarvedIndex links an index from the never-allocated
// region onto a freelist.
func TestAuditRejectsUncarvedIndex(t *testing.T) {
	a := New[int](16, WithBlockSize(4))
	x, _ := a.Alloc(Left)
	a.Free(Left, x)
	blk, off := a.locate(x)
	blk.next[off].Store(8 + 1) // slot 8 was never carved
	mustReject(t, a.Occupancy())
}

// TestPutTakeRoundTrip checks that Take returns what Put stored, zeroes
// the slot, advances its generation and frees it on Take's lane.
func TestPutTakeRoundTrip(t *testing.T) {
	a := New[*int](8, WithBlockSize(4))
	v := new(int)
	h, ok := a.Put(Right, v)
	if !ok || h < 1<<32 {
		t.Fatalf("Put = %#x, %v", h, ok)
	}
	idx, ok := a.Resolve(h)
	if !ok || a.Handle(idx) != h {
		t.Fatalf("Put's handle %#x does not resolve to itself", h)
	}
	got, ok := a.Take(Left, h)
	if !ok || got != v {
		t.Fatalf("Take = %v, %v; want %v", got, ok, v)
	}
	if *a.Get(idx) != nil {
		t.Fatal("Take left the value in the freed slot")
	}
	if _, ok := a.Resolve(h); ok {
		t.Fatal("a taken handle still resolves")
	}
	if head := uint32(a.lanes.left.free.Load()); head != idx+1 {
		t.Fatalf("left freelist head = %d, want the taken slot %d", head, idx+1)
	}
	if err := a.Occupancy().Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestTakeRejectsBadHandles checks that a stale, zero, out-of-range or
// unpublished-block handle is refused without touching the ledger or the
// freelists.
func TestTakeRejectsBadHandles(t *testing.T) {
	a := New[int](64, WithBlockSize(4))
	stale, _ := a.Put(Left, 1)
	if _, ok := a.Take(Left, stale); !ok {
		t.Fatal("first Take failed")
	}
	live, _ := a.Put(Right, 2)
	if live == stale {
		t.Fatal("recycled slot kept its generation")
	}
	for _, tc := range []struct {
		name string
		h    uint64
	}{
		{"stale generation", stale},
		{"zero", 0},
		{"generation only", 1 << 32},
		{"index past capacity", 1<<32 | (64 + 1)},
		{"index Nil", 1<<32 | uint64(Nil)},
		{"unpublished block", 1<<32 | (20 + 1)}, // block 5 of 16; only block 0 exists
	} {
		before := a.Occupancy()
		lh, rh := a.lanes.left.free.Load(), a.lanes.right.free.Load()
		if v, ok := a.Take(Left, tc.h); ok || v != 0 {
			t.Fatalf("%s: Take(%#x) = %d, %v; want 0, false", tc.name, tc.h, v, ok)
		}
		if after := a.Occupancy(); after != before {
			t.Fatalf("%s: ledger changed: %+v -> %+v", tc.name, before, after)
		}
		if a.lanes.left.free.Load() != lh || a.lanes.right.free.Load() != rh {
			t.Fatalf("%s: a freelist changed", tc.name)
		}
	}
	if v, ok := a.Take(Right, live); !ok || v != 2 {
		t.Fatalf("live handle: Take = %d, %v", v, ok)
	}
	if _, ok := a.Take(Right, live); ok {
		t.Fatal("a handle was taken twice")
	}
	if err := a.Occupancy().Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestPutOnExhaustedArena fills the arena and checks that Put then fails
// without counting an allocation.
func TestPutOnExhaustedArena(t *testing.T) {
	a := New[int](5, WithBlockSize(2))
	for i := 0; i < 5; i++ {
		if _, ok := a.Put(Lane(i&1), i); !ok {
			t.Fatalf("Put %d failed below capacity", i)
		}
	}
	for _, l := range []Lane{Left, Right} {
		if h, ok := a.Put(l, 9); ok || h != 0 {
			t.Fatalf("Put on lane %d of an exhausted arena = %#x, %v", l, h, ok)
		}
	}
	if o := a.Occupancy(); o.Allocs != 5 || o.Live != 5 || o.Conserved() != nil {
		t.Fatalf("after exhaustion: %+v (%v)", o, o.Conserved())
	}
}
