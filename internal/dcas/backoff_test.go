package dcas

import (
	"runtime"
	"sync"
	"testing"
)

// TestBackoffBoundDoubling checks the exponential growth and the bound:
// the spin budget doubles per wait starting at minSpins and, once past
// maxSpins, every further wait yields instead of spinning.
func TestBackoffBoundDoubling(t *testing.T) {
	p := &backoffPolicy{minSpins: 4, maxSpins: 64}
	bo := p.startAt(2)

	wantCur := []uint32{4, 8, 16, 32, 64, 128, 128, 128}
	for i, want := range wantCur {
		if bo.cur != want {
			t.Fatalf("wait %d: cur = %d, want %d", i, bo.cur, want)
		}
		spun := bo.wait()
		if past := want > p.maxSpins; past != (spun == 0) {
			t.Fatalf("wait %d at bound %d spun %d iterations", i, want, spun)
		}
	}
	// cur is now pinned above maxSpins: all subsequent waits must be
	// yields, not spins.
	for i := 0; i < 10; i++ {
		if spun := bo.wait(); spun != 0 {
			t.Fatalf("spun %d iterations past the bound", spun)
		}
	}
	if bo.cur != 128 {
		t.Fatalf("yields moved the bound: cur = %d, want 128", bo.cur)
	}
}

// TestBackoffSpinAccounting checks that the per-wait spin count lands in
// the jitter window [cur/2, cur].
func TestBackoffSpinAccounting(t *testing.T) {
	p := &backoffPolicy{minSpins: 32, maxSpins: 32}
	for trial := 0; trial < 50; trial++ {
		bo := p.startAt(2)
		if spun := bo.wait(); spun < 16 || spun > 32 {
			t.Fatalf("trial %d: spun %d iterations, want within [16, 32]", trial, spun)
		}
	}
}

// TestBackoffJitterVaries checks that independent cursors do not produce
// one identical spin sequence (the lockstep pathology jitter must break).
func TestBackoffJitterVaries(t *testing.T) {
	p := &backoffPolicy{minSpins: 1 << 20, maxSpins: 1 << 20}
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		bo := p.start()
		seen[bo.nextRand()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 cursors produced %d distinct jitter streams", len(seen))
	}
}

// TestBackoffYieldOnlyPolicy checks the maxSpins=0 configuration used on
// single-P schedules: every wait is a yield from the start.
func TestBackoffYieldOnlyPolicy(t *testing.T) {
	p := &backoffPolicy{minSpins: 8, maxSpins: 0}
	bo := p.start()
	for i := 0; i < 5; i++ {
		if spun := bo.wait(); spun != 0 {
			t.Fatalf("wait %d: yield-only policy spun %d iterations", i, spun)
		}
	}
	if bo.cur != p.minSpins {
		t.Fatalf("yields moved the bound: cur = %d, want %d", bo.cur, p.minSpins)
	}
}

// TestLockBackoffFollowsGOMAXPROCS checks that the lock slow paths read
// GOMAXPROCS when a wait starts, not once at package init: after the
// process drops to one P, a wait yields without spinning, and back at
// two it spins again.  Under `go test -cpu 1,2` it also runs with the
// test binary's own GOMAXPROCS set either way before it starts.
func TestLockBackoffFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1, 2, 1} {
		runtime.GOMAXPROCS(procs)
		bo := lockBackoff.start()
		spun := bo.wait()
		if procs == 1 && spun != 0 {
			t.Fatalf("GOMAXPROCS=1: first wait spun %d pause iterations, want a yield", spun)
		}
		if procs > 1 && spun == 0 {
			t.Fatalf("GOMAXPROCS=%d: first wait yielded, want a spin", procs)
		}
	}
}

// TestDefaultBackoffIsUsable smoke-tests the lock slow paths' adaptive
// policy.
func TestDefaultBackoffIsUsable(t *testing.T) {
	bo := lockBackoff.start()
	for i := 0; i < 10; i++ {
		bo.wait()
	}
}

// TestSpinLockMutualExclusion hammers one spinlock from many goroutines
// incrementing an unsynchronized counter; any mutual-exclusion failure
// loses increments (and trips the race detector).
func TestSpinLockMutualExclusion(t *testing.T) {
	const (
		workers = 8
		rounds  = 20000
	)
	var lk spinLock
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lk.Lock(0)
				counter++
				lk.Unlock(0)
			}
		}()
	}
	wg.Wait()
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

// TestSpinLockTryLock checks the non-blocking acquisition path.
func TestSpinLockTryLock(t *testing.T) {
	var lk spinLock
	if !lk.TryLock(0) {
		t.Fatal("TryLock on an unlocked lock failed")
	}
	if lk.TryLock(0) {
		t.Fatal("TryLock on a held lock succeeded")
	}
	lk.Unlock(0)
	if !lk.TryLock(0) {
		t.Fatal("TryLock after Unlock failed")
	}
	lk.Unlock(0)
}

// TestAssignIDs checks eager token assignment: idempotent, unique, and
// consistent with the lazy path.
func TestAssignIDs(t *testing.T) {
	var a, b Loc
	AssignIDs(&a, &b)
	ida, idb := a.lk.state.Load()>>idShift, b.lk.state.Load()>>idShift
	if ida == 0 || idb == 0 {
		t.Fatal("AssignIDs left a token unassigned")
	}
	if ida == idb {
		t.Fatalf("duplicate tokens: %d", ida)
	}
	AssignIDs(&a, &b) // idempotent
	if a.lk.state.Load()>>idShift != ida || b.lk.state.Load()>>idShift != idb {
		t.Fatal("AssignIDs reassigned an existing token")
	}
	if a.ID() != ida || a.lockKey() != ida<<idShift {
		t.Fatal("ID or lockKey disagrees with the assigned token")
	}
	// The token shares the lock word: taking and releasing the lock must
	// leave it in place.
	a.Store(1)
	a.CAS(1, 2)
	new(TwoLock).DCAS(&a, &b, 2, 0, 3, 4)
	if a.ID() != ida || b.ID() != idb {
		t.Fatalf("tokens %d, %d after locked operations, want %d, %d", a.ID(), b.ID(), ida, idb)
	}
}
