package metrics

import (
	"sync"
	"testing"
)

func TestNanotimeMonotonic(t *testing.T) {
	prev := Nanotime()
	for i := 0; i < 1000; i++ {
		now := Nanotime()
		if now < prev {
			t.Fatalf("Nanotime went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestShardedShardClamp(t *testing.T) {
	for _, tc := range []struct{ want, ask int }{
		{1, 0}, {1, -5}, {1, 1}, {2, 2}, {4, 3}, {8, 8}, {64, 64}, {64, 1000},
	} {
		h := NewShardedHistogram(tc.ask)
		if got := len(h.shards); got != tc.want {
			t.Errorf("NewShardedHistogram(%d): %d shards, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestShardedMergeEquivalence feeds the same value stream to a
// ShardedHistogram (spread across lanes) and a plain Histogram: identical
// bucket geometry means the merged totals must match exactly.
func TestShardedMergeEquivalence(t *testing.T) {
	sh := NewShardedHistogram(8)
	plain := new(Histogram)
	vals := []uint64{0, 1, 7, 8, 100, 1023, 1 << 20, 3<<40 + 17, ^uint64(0)}
	for i, v := range vals {
		sh.RecordAt(i, v) // one lane per value: every stripe participates
		plain.Record(v)
	}
	m := sh.Merge()
	if m.N() != plain.N() || m.sum != plain.sum || m.Min() != plain.Min() || m.Max() != plain.Max() {
		t.Fatalf("merge mismatch: n=%d/%d sum=%d/%d min=%d/%d max=%d/%d",
			m.N(), plain.N(), m.sum, plain.sum, m.Min(), plain.Min(), m.Max(), plain.Max())
	}
	if m.counts != plain.counts {
		t.Fatal("merged bucket counts differ from plain histogram")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if m.Quantile(q) != plain.Quantile(q) {
			t.Errorf("Quantile(%v): %d vs %d", q, m.Quantile(q), plain.Quantile(q))
		}
	}
}

func TestShardedConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	h := NewShardedHistogram(8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(uint64(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()
	if got := h.N(); got != goroutines*perG {
		t.Fatalf("N = %d, want %d", got, goroutines*perG)
	}
	m := h.Merge()
	if m.Min() != 1 {
		t.Errorf("min = %d, want 1", m.Min())
	}
	if m.Max() != goroutines*perG {
		t.Errorf("max = %d, want %d", m.Max(), goroutines*perG)
	}
	want := uint64(goroutines*perG) * uint64(goroutines*perG+1) / 2
	if m.sum != want {
		t.Errorf("sum = %d, want %d", m.sum, want)
	}
}

func TestShardedRecordAtLanes(t *testing.T) {
	h := NewShardedHistogram(4)
	h.RecordAt(0, 10)
	h.RecordAt(1, 20)
	h.RecordAt(5, 30) // wraps to lane 1
	h.RecordAt(-3, 40)
	if h.shards[0].n.Load() != 2 { // lane 0 and the negative lane
		t.Errorf("lane 0 n = %d, want 2", h.shards[0].n.Load())
	}
	if h.shards[1].n.Load() != 2 { // lane 1 and lane 5 (mod 4)
		t.Errorf("lane 1 n = %d, want 2", h.shards[1].n.Load())
	}
	if h.N() != 4 {
		t.Errorf("N = %d, want 4", h.N())
	}
}

func TestShardedSnapshot(t *testing.T) {
	h := NewShardedHistogram(4)
	for i := uint64(1); i <= 1000; i++ {
		h.RecordAt(int(i), i)
	}
	sn := h.Snapshot()
	if sn.N != 1000 || sn.Min != 1 || sn.Max != 1000 {
		t.Fatalf("snapshot totals: %+v", sn)
	}
	if sn.P50 == 0 || sn.P50 > sn.P99 || sn.P99 > sn.P999 || sn.P999 > bucketLow(bucketOf(1000)+1) {
		t.Fatalf("quantile ordering violated: p50=%d p99=%d p999=%d", sn.P50, sn.P99, sn.P999)
	}
	// Uniform 1..1000: p50's bucket upper bound must be within the
	// geometry's 12.5% relative error of 500.
	if sn.P50 < 500 || sn.P50 > 625 {
		t.Errorf("p50 = %d, want within (500, 625]", sn.P50)
	}
	if got := sn.Mean(); got < 499 || got > 502 {
		t.Errorf("mean = %v, want ~500.5", got)
	}
	var bucketed uint64
	for _, b := range sn.Buckets {
		if b.Low >= b.High {
			t.Fatalf("bucket bounds inverted: %+v", b)
		}
		bucketed += b.Count
	}
	if bucketed != sn.N {
		t.Errorf("bucket counts sum to %d, want %d", bucketed, sn.N)
	}
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	var h Histogram
	sn := h.Snapshot()
	if sn.N != 0 || sn.Sum != 0 || sn.Min != 0 || sn.Max != 0 {
		t.Fatalf("empty snapshot totals: %+v", sn)
	}
	if sn.P50 != 0 || sn.P999 != 0 {
		t.Fatalf("empty snapshot quantiles: %+v", sn)
	}
	if sn.Buckets != nil {
		t.Fatalf("empty snapshot has buckets: %v", sn.Buckets)
	}
	if sn.Mean() != 0 {
		t.Fatalf("empty snapshot mean: %v", sn.Mean())
	}
}

// TestStackLaneCollisions holds goroutines live at a barrier — so their
// stacks are distinct allocations at once, as concurrent recorders' are —
// and compares how often two of them pick the same stripe against the
// birthday bound for uniformly random picks: g goroutines over s stripes
// collide in g(g−1)/2s pairs on average.  A hash that ignores the bits
// telling neighbouring stacks apart piles them onto a few stripes and
// exceeds the bound many times over.
func TestStackLaneCollisions(t *testing.T) {
	const (
		goroutines = 64
		stripes    = 64
	)
	lanes := make([]uint32, goroutines)
	var picked, done sync.WaitGroup
	release := make(chan struct{})
	picked.Add(goroutines)
	done.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer done.Done()
			lanes[g] = StackLane(stripes - 1)
			picked.Done()
			<-release // keep this stack live until every goroutine has picked
		}()
	}
	picked.Wait()
	close(release)
	done.Wait()

	perLane := map[uint32]int{}
	pairs := 0
	for _, l := range lanes {
		pairs += perLane[l]
		perLane[l]++
	}
	birthday := float64(goroutines*(goroutines-1)/2) / stripes
	t.Logf("%d goroutines over %d stripes: %d colliding pairs (birthday bound %.1f), %d stripes used",
		goroutines, stripes, pairs, birthday, len(perLane))
	// Three times the mean is about eleven standard deviations above it
	// for random picks; a degenerate hash collides in hundreds of pairs.
	if float64(pairs) > 3*birthday {
		t.Fatalf("%d colliding pairs, more than 3× the birthday bound %.1f: lanes %v", pairs, birthday, lanes)
	}
}
