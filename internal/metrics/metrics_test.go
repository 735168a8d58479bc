package metrics

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketMonotonic(t *testing.T) {
	// bucketOf must be monotone non-decreasing and bucketLow must be a
	// left inverse lower bound.
	prev := -1
	for _, v := range []uint64{0, 1, 2, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 40} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if low := bucketLow(b); low > v {
			t.Fatalf("bucketLow(%d) = %d > %d", b, low, v)
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			return bucketOf(0) == 0
		}
		b := bucketOf(v)
		low := bucketLow(b)
		high := bucketLow(b + 1)
		if v < low {
			return false
		}
		if high == ^uint64(0) {
			// Top bucket: the upper bound saturates; only the lower bound
			// applies.
			return true
		}
		// v must lie in [low, high) and the bucket width must be ≤ 12.5%
		// of low once past the linear region.
		if v >= high {
			return false
		}
		if low >= 8 && float64(high-low) > 0.1251*float64(low) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram has non-zero stats")
	}
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %f", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450 || p50 > 600 {
		t.Fatalf("p50 = %d (bucketed upper bound of ~500)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1200 {
		t.Fatalf("p99 = %d", p99)
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) < h.Quantile(1)-1 {
		t.Fatal("quantile clamping broken")
	}
	if !strings.Contains(h.Summary(), "n=1000") {
		t.Fatalf("summary: %s", h.Summary())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	rng := rand.New(rand.NewPCG(1, 2))
	var all []uint64
	for i := 0; i < 2000; i++ {
		v := uint64(rng.IntN(1 << 20))
		all = append(all, v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	var whole Histogram
	for _, v := range all {
		whole.Record(v)
	}
	a.Merge(&b)
	if a.N() != whole.N() || a.Mean() != whole.Mean() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged histogram differs from whole")
	}
	for q := 0.0; q <= 1.0; q += 0.1 {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("quantile %f differs after merge", q)
		}
	}
}

func TestBucketLowSaturation(t *testing.T) {
	// The top power-of-two region is exp 63; bucketOf(MaxUint64) is the
	// last real bucket, so Quantile's bucketLow(b+1) upper bound asks for
	// exp ≥ 64 — which must saturate to MaxUint64, not shift-overflow to
	// a tiny bound.
	const top = ^uint64(0)
	last := bucketOf(top)
	if got := bucketLow(last + 1); got != top {
		t.Fatalf("bucketLow(%d) = %d, want saturation to MaxUint64", last+1, got)
	}
	// Every index past the table also saturates (Quantile may probe b+1
	// for any populated b).
	for _, b := range []int{last + 2, 62 * subBuckets, 1000} {
		if got := bucketLow(b); got != top {
			t.Fatalf("bucketLow(%d) = %d, want saturation", b, got)
		}
	}
	// The last unsaturated index is still a real lower bound below the
	// saturation point.
	if got := bucketLow(last); got == top || got > top-(top>>4) {
		t.Fatalf("bucketLow(%d) = %d saturated too early", last, got)
	}
	// End to end: a histogram holding MaxUint64 reports it, at every
	// quantile, without overflow.
	var h Histogram
	h.Record(top)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != top {
			t.Fatalf("Quantile(%v) = %d, want MaxUint64", q, got)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	// Merging two empties stays empty.
	var a, b Histogram
	a.Merge(&b)
	if a.N() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty∪empty: n=%d min=%d max=%d", a.N(), a.Min(), a.Max())
	}
	// Empty ∪ non-empty adopts the other's extremes: min must be copied
	// even though the empty side's zero min is numerically smaller-looking
	// state, not a real observation.
	var full Histogram
	full.Record(100)
	full.Record(200)
	a.Merge(&full)
	if a.Min() != 100 || a.Max() != 200 || a.N() != 2 {
		t.Fatalf("empty∪full: n=%d min=%d max=%d, want 2/100/200", a.N(), a.Min(), a.Max())
	}
	// Non-empty ∪ empty keeps its extremes: the empty side's zero min
	// must not clobber a real minimum.
	var c, empty Histogram
	c.Record(100)
	c.Record(200)
	c.Merge(&empty)
	if c.Min() != 100 || c.Max() != 200 || c.N() != 2 {
		t.Fatalf("full∪empty: n=%d min=%d max=%d, want 2/100/200", c.N(), c.Min(), c.Max())
	}
	// And a later real observation below the adopted minimum still wins.
	c.Record(7)
	if c.Min() != 7 {
		t.Fatalf("min after post-merge record = %d, want 7", c.Min())
	}
}

func TestQuantileEdges(t *testing.T) {
	// Empty histogram: every quantile is 0, including the clamped
	// out-of-range arguments.
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d", q, got)
		}
	}
	var h Histogram
	for i := uint64(1); i <= 100; i++ {
		h.Record(i)
	}
	// Quantile(0) is the first populated bucket's upper bound — it must
	// cover the minimum, and for min=1 (linear region, exact buckets) it
	// is exactly bucketLow(bucketOf(1)+1) = 2.
	if q0 := h.Quantile(0); q0 < h.Min() || q0 != bucketLow(bucketOf(1)+1) {
		t.Fatalf("Quantile(0) = %d, min = %d", q0, h.Min())
	}
	// Quantile(1) bounds the maximum from above.
	if q1 := h.Quantile(1); q1 < h.Max() {
		t.Fatalf("Quantile(1) = %d < max %d", q1, h.Max())
	}
	// A single observation pins every quantile to the same bucket bound.
	var one Histogram
	one.Record(42)
	if one.Quantile(0) != one.Quantile(1) {
		t.Fatalf("single-value quantiles differ: %d vs %d", one.Quantile(0), one.Quantile(1))
	}
}

func TestMergeSaturatedExtremes(t *testing.T) {
	// One side saturated at the top bucket (observations near MaxUint64,
	// where bucketLow(b+1) saturates), the other holding small values:
	// Merge must preserve the true min from one side and the true max from
	// the other, in both merge directions.
	const top = ^uint64(0)
	mk := func(vals ...uint64) *Histogram {
		h := new(Histogram)
		for _, v := range vals {
			h.Record(v)
		}
		return h
	}
	small := mk(5, 10)
	sat := mk(top, top-1)
	small.Merge(sat)
	if small.Min() != 5 || small.Max() != top || small.N() != 4 {
		t.Fatalf("small∪sat: n=%d min=%d max=%d", small.N(), small.Min(), small.Max())
	}
	if got := small.Quantile(1); got != top {
		t.Fatalf("merged Quantile(1) = %d, want MaxUint64", got)
	}
	sat2 := mk(top, top-1)
	small2 := mk(5, 10)
	sat2.Merge(small2)
	if sat2.Min() != 5 || sat2.Max() != top || sat2.N() != 4 {
		t.Fatalf("sat∪small: n=%d min=%d max=%d", sat2.N(), sat2.Min(), sat2.Max())
	}
}

func TestRecordSince(t *testing.T) {
	var h Histogram
	start := time.Now()
	h.RecordSince(start)
	if h.N() != 1 {
		t.Fatal("RecordSince did not record")
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Ops: 1000, Elapsed: 2 * time.Second}
	if tp.PerSecond() != 500 {
		t.Fatalf("PerSecond = %f", tp.PerSecond())
	}
	if (Throughput{Ops: 5}).PerSecond() != 0 {
		t.Fatal("zero-elapsed throughput not 0")
	}
	if !strings.Contains(tp.String(), "500 ops/s") {
		t.Fatalf("String = %s", tp.String())
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("impl", "threads", "ops/s")
	tb.AddRow("array", 4, 123456.789)
	tb.AddRow("list-deque-long-name", 16, 9.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "impl") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/separator malformed:\n%s", out)
	}
	if !strings.Contains(out, "123456.79") {
		t.Fatalf("float formatting: %s", out)
	}
}
