package deque

import (
	"errors"
	"testing"
)

// memDeque is the slice of the API the leak tests need: operations plus
// the occupancy snapshot.
type memDeque interface {
	Deque[int]
	Mem() MemStats
}

// leakBackends builds every backend with telemetry off — Mem must work
// unconditionally, the soak harness depends on it.
func leakBackends(t *testing.T, opts ...Option) map[string]memDeque {
	t.Helper()
	return map[string]memDeque{
		"array":    NewArray[int](256, opts...),
		"list":     NewList[int](opts...),
		"dummy":    NewList[int](append(opts, WithDummyNodes())...),
		"lfrc":     NewList[int](append(opts, WithLFRC())...),
		"gc-mode":  NewList[int](append(opts, WithoutNodeReuse())...),
		"chaselev": NewChaseLev[int](opts...),
		"mutex":    NewMutex[int](256, opts...),
	}
}

// TestNoLeakAcrossCycles drives each backend through N push/pop/recycle
// cycles and asserts the occupancy ledgers balance: every allocated
// element slot was freed (or retired, in gc mode), live counts return
// to baseline, and the conservation invariant holds throughout.
func TestNoLeakAcrossCycles(t *testing.T) {
	const cycles = 5000
	for name, d := range leakBackends(t) {
		t.Run(name, func(t *testing.T) {
			base := d.Mem()
			if err := base.Conserved(); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for i := 0; i < cycles; i++ {
				// Alternate transit directions where the backend allows it,
				// so both ends' deletion paths run; chaselev is owner-push-
				// right only.
				var perr error
				if i%2 == 0 {
					perr = d.PushRight(i)
				} else {
					perr = d.PushLeft(i)
					if errors.Is(perr, ErrUnsupported) {
						perr = d.PushRight(i)
					}
				}
				if perr != nil {
					t.Fatalf("cycle %d: push: %v", i, perr)
				}
				if _, err := d.PopLeft(); err != nil {
					t.Fatalf("cycle %d: pop: %v", i, err)
				}
			}
			if c, ok := any(d).(interface{ Compact() }); ok {
				c.Compact()
			}
			m := d.Mem()
			if err := m.Conserved(); err != nil {
				t.Fatalf("after %d cycles: %v", cycles, err)
			}
			// Every element slot allocated was released: frees (+ retired,
			// for gc-mode arenas) must equal allocs exactly, with nothing
			// live.
			if m.Slots.Live != 0 {
				t.Fatalf("%d element slots still live after full drain", m.Slots.Live)
			}
			if m.Slots.Frees+m.Slots.Retired != m.Slots.Allocs {
				t.Fatalf("slot ledger leak: allocs %d, frees %d, retired %d",
					m.Slots.Allocs, m.Slots.Frees, m.Slots.Retired)
			}
			if m.Slots.Allocs < cycles {
				t.Fatalf("only %d slot allocs over %d cycles — ledger not counting", m.Slots.Allocs, cycles)
			}
			// The auxiliary node arenas must be back at (or within a couple
			// of deferred deletions of) their post-construction baseline.
			check := func(kind string, b, f *ArenaStats) {
				if b == nil || f == nil {
					return
				}
				if f.Live > b.Live+4 {
					t.Fatalf("%s leak: %d live after drain (baseline %d)", kind, f.Live, b.Live)
				}
				if f.Live >= 0 && uint64(f.Live)+f.Frees+f.Retired != f.Allocs {
					t.Fatalf("%s ledger: live %d + frees %d + retired %d != allocs %d",
						kind, f.Live, f.Frees, f.Retired, f.Allocs)
				}
			}
			check("nodes", base.Nodes, m.Nodes)
			check("lfrc", base.Lfrc, m.Lfrc)
			// High water must reflect the tiny working set, not the cycle
			// count — slots are recycled, not accreted.
			if m.Slots.HighWater > 64 {
				t.Fatalf("slots high water %d for a working set of 1", m.Slots.HighWater)
			}
		})
	}
}

// TestChaseLevRetiredRings forces ring growth and asserts the retired-
// ring ledger agrees with the chain structure: pushing past the initial
// 64-cell ring doubles it repeatedly, each doubling retires exactly one
// ring, and the chain keeps rings == retired + 1 (the live ring).
func TestChaseLevRetiredRings(t *testing.T) {
	d := NewChaseLev[int]()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	m := d.Mem()
	if m.Rings == nil {
		t.Fatal("chaselev Mem has no ring stats")
	}
	// 64-cell initial ring, 4096 elements: 64→128→…→4096 is 6 doublings.
	if m.Rings.Retired != 6 {
		t.Fatalf("retired rings = %d after growing 64→%d, want 6", m.Rings.Retired, n)
	}
	if m.Rings.Rings != m.Rings.Retired+1 {
		t.Fatalf("ring ledger: %d rings, %d retired — chain must keep rings == retired+1",
			m.Rings.Rings, m.Rings.Retired)
	}
	if m.Rings.Cells != n {
		t.Fatalf("live ring has %d cells, want %d", m.Rings.Cells, n)
	}
	// Retired rings stay reachable (stale-reader safety): their bytes are
	// part of live occupancy, and must exceed the live ring alone.
	liveRingBytes := uint64(n)*8 + 48
	if m.Rings.Bytes <= liveRingBytes {
		t.Fatalf("ring bytes %d do not include the retired chain (live ring alone is %d)",
			m.Rings.Bytes, liveRingBytes)
	}
	// Drain and re-check conservation end to end.
	for i := 0; i < n; i++ {
		if _, err := d.PopLeft(); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	m = d.Mem()
	if err := m.Conserved(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if m.Slots.Live != 0 {
		t.Fatalf("%d slots live after drain", m.Slots.Live)
	}
}

// TestMemoryBoundEnforced exercises WithMemoryBound end to end on each
// backend that supports it: pushes are rejected with ErrMemoryBound
// once live occupancy hits the budget, pops release budget, and pushes
// then succeed again.
func TestMemoryBoundEnforced(t *testing.T) {
	const bound = 8 << 10
	// Bounded backends get capacity beyond what the budget admits, so
	// the bound — not ErrFull — is what stops the fill.
	backends := map[string]memDeque{
		"array":    NewArray[int](4096, WithMemoryBound(bound)),
		"list":     NewList[int](WithMemoryBound(bound)),
		"dummy":    NewList[int](WithMemoryBound(bound), WithDummyNodes()),
		"lfrc":     NewList[int](WithMemoryBound(bound), WithLFRC()),
		"chaselev": NewChaseLev[int](WithMemoryBound(bound)),
		"mutex":    NewMutex[int](4096, WithMemoryBound(bound)),
	}
	for name, d := range backends {
		t.Run(name, func(t *testing.T) {
			pushed := 0
			var berr error
			for i := 0; i < 1<<20; i++ {
				err := d.PushRight(i)
				if err == nil {
					pushed++
					continue
				}
				berr = err
				break
			}
			if !errors.Is(berr, ErrMemoryBound) {
				t.Fatalf("filled to %d pushes, last error %v, want ErrMemoryBound", pushed, berr)
			}
			if pushed == 0 {
				t.Fatal("bound rejected the very first push")
			}
			// Admission is exact except for Chase–Lev ring doublings, which
			// happen inside the core push after admission — occupancy may
			// overshoot by at most the ring that grew, and the next
			// admission rejects.
			m := d.Mem()
			var overshoot uint64
			if m.Rings != nil {
				overshoot = m.Rings.Cells*8 + 48
			}
			if lb := m.LiveBytes(); lb > bound+overshoot {
				t.Fatalf("live bytes %d exceed the %d budget (+%d ring-growth allowance)",
					lb, bound, overshoot)
			}
			// Pops release budget, so pushes must be readmitted before the
			// deque drains completely.  (How many pops that takes varies:
			// the Chase–Lev ring chain never shrinks, so its slots' share
			// of the budget is what remains after the rings' — roughly
			// half.)
			readmitted := false
			for i := 0; i < pushed; i++ {
				if _, err := d.PopLeft(); err != nil {
					t.Fatalf("pop %d: %v", i, err)
				}
				if err := d.PushRight(42); err == nil {
					readmitted = true
					break
				} else if !errors.Is(err, ErrMemoryBound) {
					t.Fatalf("pop %d: push rejected with %v", i, err)
				}
			}
			if !readmitted {
				t.Fatal("bound never readmitted a push even as the deque drained")
			}
		})
	}
}

// TestMemoryBoundCompaction verifies the compact-then-recheck path: a
// list deque whose budget is consumed by deferred-deletion garbage must
// compact its way back under the bound instead of failing.
func TestMemoryBoundCompaction(t *testing.T) {
	// Generous bound first: fill, then drain — pops leave spliced-out
	// nodes awaiting physical deletion.
	d := NewList[int](WithMemoryBound(64 << 10))
	const n = 256
	for i := 0; i < n; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := d.PopRight(); err != nil {
			t.Fatalf("pop: %v", err)
		}
	}
	before := d.Mem()
	d.Compact()
	after := d.Mem()
	if after.Nodes.Live > before.Nodes.Live {
		t.Fatalf("compaction grew live nodes: %d → %d", before.Nodes.Live, after.Nodes.Live)
	}
	// The deque is empty: pushes must succeed regardless of how much
	// garbage the drain left, because admit() compacts before rejecting.
	for i := 0; i < n; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("post-drain push %d: %v", i, err)
		}
	}
}

// TestMutexLedgerAudit seeds the two halves a release can drop in the
// Mutex baseline — a slot lost from the free channel, and a release
// counted without its slot coming back — and checks that Mem's audit
// (slots − free == Live) rejects each while a clean history passes.
func TestMutexLedgerAudit(t *testing.T) {
	d := NewMutex[int](8)
	held := 0
	for i := 0; i < 100; i++ {
		if d.PushRight(i) == nil { // ErrFull once 8 are held
			held++
		}
		if i%3 != 0 {
			continue
		}
		if _, err := d.PopLeft(); err == nil {
			held--
		}
	}
	m := d.Mem()
	if err := m.Conserved(); err != nil {
		t.Fatalf("clean history: %v", err)
	}
	if m.Slots.Live != int64(held) {
		t.Fatalf("Live = %d, want the deque's length %d", m.Slots.Live, held)
	}

	lost := <-d.free // neither free nor counted live
	if err := d.Mem().Conserved(); err == nil {
		t.Fatal("audit accepted a slot lost from the free channel")
	}
	d.free <- lost

	d.memFrees.Add(1) // a release counted, its slot never returned
	if err := d.Mem().Conserved(); err == nil {
		t.Fatal("audit accepted a release whose slot never came back")
	}
}
