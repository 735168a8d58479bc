package dcas

import (
	"sync"
	"testing"
)

// TestBackoffNilPolicyIsNoop checks that the disabled form (nil policy,
// zero cursor) never waits and never touches stats.
func TestBackoffNilPolicyIsNoop(t *testing.T) {
	var p *BackoffPolicy
	bo := p.Start()
	for i := 0; i < 100; i++ {
		bo.Wait()
	}
	bo.Reset()
	var zero Backoff
	zero.Wait() // must not panic
}

// TestBackoffBoundDoubling checks the exponential growth and the bound:
// the spin budget doubles per Wait starting at MinSpins and, once past
// MaxSpins, every further Wait yields instead of spinning.
func TestBackoffBoundDoubling(t *testing.T) {
	var st Stats
	p := &BackoffPolicy{MinSpins: 4, MaxSpins: 64, Stats: &st}
	bo := p.Start()

	wantCur := []uint32{4, 8, 16, 32, 64, 128, 128, 128}
	for i, want := range wantCur {
		if bo.cur != want {
			t.Fatalf("wait %d: cur = %d, want %d", i, bo.cur, want)
		}
		bo.Wait()
	}
	// cur is now pinned above MaxSpins: all subsequent waits must be
	// yields, not spins.
	spinsBefore := st.BackoffSpins.Load()
	yieldsBefore := st.BackoffYields.Load()
	for i := 0; i < 10; i++ {
		bo.Wait()
	}
	if got := st.BackoffSpins.Load(); got != spinsBefore {
		t.Fatalf("spins grew past the bound: %d -> %d", spinsBefore, got)
	}
	if got := st.BackoffYields.Load(); got != yieldsBefore+10 {
		t.Fatalf("yields = %d, want %d", got, yieldsBefore+10)
	}

	bo.Reset()
	if bo.cur != p.MinSpins {
		t.Fatalf("after Reset: cur = %d, want %d", bo.cur, p.MinSpins)
	}
}

// TestBackoffSpinAccounting checks that the per-wait spin count lands in
// the jitter window [cur/2, cur].
func TestBackoffSpinAccounting(t *testing.T) {
	var st Stats
	p := &BackoffPolicy{MinSpins: 32, MaxSpins: 32, Stats: &st}
	for trial := 0; trial < 50; trial++ {
		bo := p.Start()
		before := st.BackoffSpins.Load()
		bo.Wait()
		spun := st.BackoffSpins.Load() - before
		if spun < 16 || spun > 32 {
			t.Fatalf("trial %d: spun %d iterations, want within [16, 32]", trial, spun)
		}
	}
}

// TestBackoffJitterVaries checks that independent cursors do not produce
// one identical spin sequence (the lockstep pathology jitter must break).
func TestBackoffJitterVaries(t *testing.T) {
	p := &BackoffPolicy{MinSpins: 1 << 20, MaxSpins: 1 << 20}
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		bo := p.Start()
		seen[bo.nextRand()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 cursors produced %d distinct jitter streams", len(seen))
	}
}

// TestBackoffYieldOnlyPolicy checks the MaxSpins=0 configuration used on
// single-P schedules: every wait is a yield from the start.
func TestBackoffYieldOnlyPolicy(t *testing.T) {
	var st Stats
	p := &BackoffPolicy{MinSpins: 8, MaxSpins: 0, Stats: &st}
	bo := p.Start()
	for i := 0; i < 5; i++ {
		bo.Wait()
	}
	if st.BackoffSpins.Load() != 0 {
		t.Fatalf("yield-only policy spun %d times", st.BackoffSpins.Load())
	}
	if st.BackoffYields.Load() != 5 {
		t.Fatalf("yields = %d, want 5", st.BackoffYields.Load())
	}
}

// TestDefaultBackoffIsUsable smoke-tests the adaptive constructor.
func TestDefaultBackoffIsUsable(t *testing.T) {
	p := DefaultBackoff()
	bo := p.Start()
	for i := 0; i < 10; i++ {
		bo.Wait()
	}
	bo.Reset()
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
