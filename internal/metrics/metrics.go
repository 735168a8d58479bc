// Package metrics provides the small measurement toolkit used by the
// benchmark harness: fixed-bucket latency histograms, throughput
// accounting, and aligned text tables for reporting experiment results.
// Everything is stdlib-only and allocation-conscious so that measuring
// does not perturb what is measured.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// Histogram is a log-linear latency histogram: values are bucketed by
// power of two with 8 linear sub-buckets each, covering 1ns to ~35s with
// ≤ 12.5% relative error.  It is NOT safe for concurrent use; give each
// worker its own and Merge afterwards.
type Histogram struct {
	counts [64 * subBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
	min    uint64
}

const subBuckets = 8

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // ≥ 3
	// Top 3 bits after the leading one select the linear sub-bucket.
	sub := (v >> (uint(exp) - 3)) & (subBuckets - 1)
	return (exp-2)*subBuckets + int(sub)
}

// bucketLow returns the lowest value mapped to bucket b (inverse of
// bucketOf for reporting).  Indices beyond the top bucket saturate to the
// maximum value, so bucketLow(b+1) is always a valid upper bound.
func bucketLow(b int) uint64 {
	if b < subBuckets {
		return uint64(b)
	}
	exp := b/subBuckets + 2
	if exp >= 64 {
		return ^uint64(0)
	}
	sub := b % subBuckets
	return 1<<uint(exp) | uint64(sub)<<(uint(exp)-3)
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if h.n == 1 || v < h.min {
		h.min = v
	}
}

// RecordSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(uint64(time.Since(start)))
}

// N reports the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Mean reports the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max report the extreme observations (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max reports the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) with the
// histogram's bucket resolution.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			return bucketLow(b + 1)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if other.n > 0 {
		if h.n == 0 || other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// Summary renders n, mean, p50, p99 and max as durations.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.n,
		time.Duration(h.Mean()).Round(time.Nanosecond),
		time.Duration(h.Quantile(0.50)),
		time.Duration(h.Quantile(0.99)),
		time.Duration(h.max))
}

// Throughput expresses completed operations over a wall-clock interval.
type Throughput struct {
	Ops     uint64
	Elapsed time.Duration
}

// PerSecond reports operations per second.
func (t Throughput) PerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Ops) / t.Elapsed.Seconds()
}

// String renders the throughput human-readably.
func (t Throughput) String() string {
	return fmt.Sprintf("%.0f ops/s (%d ops in %v)", t.PerSecond(), t.Ops, t.Elapsed.Round(time.Millisecond))
}

// Table accumulates rows and renders them with aligned columns, in the
// style of a paper's results table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
