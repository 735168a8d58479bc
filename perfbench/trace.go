package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into the layer. Spans of one request or one
// fib tree share trace; parent names the enclosing span of the same
// trace ("" for the root), which is unique within a trace.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog is a fixed-size in-memory span buffer that any number of
// goroutines append to without locking; spans past its capacity are
// counted and dropped, so recording never allocates or blocks.
type spanLog struct {
	buf []span
	n   atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	if i := l.n.Add(1) - 1; i < int64(len(l.buf)) {
		l.buf[i] = s
	}
}

func (l *spanLog) spans() []span { return l.buf[:min(l.n.Load(), int64(len(l.buf)))] }

func (l *spanLog) dropped() int64 { return max(l.n.Load()-int64(len(l.buf)), 0) }

// spanStat summarizes the spans of one name: how many, and the median
// of their durations and of their self times, in ns.
type spanStat struct {
	Name    string
	Count   int
	DurP50  float64
	SelfP50 float64
}

// selfTimes computes every span's self time — its duration minus the
// part of its interval that its children cover — and summarizes them
// per span name, in first-seen order.
func selfTimes(spans []span) []spanStat {
	type key struct {
		trace uint64
		name  string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	var order []string
	durs := map[string][]uint32{}
	selfs := map[string][]uint32{}
	for _, s := range spans {
		if _, ok := durs[s.Name]; !ok {
			order = append(order, s.Name)
		}
		self := s.dur() - covered(s, children[key{s.Trace, s.Name}])
		durs[s.Name] = append(durs[s.Name], nsSample(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], nsSample(self))
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, spanStat{name, len(durs[name]), quantile(durs[name], 0.5), quantile(selfs[name], 0.5)})
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	end := parent.Start
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
			end = v[1]
		}
	}
	return total
}

// maxWrittenSpans caps the spans written per traced pass; the self
// times and per-layer metrics use every recorded span.
const maxWrittenSpans = 20000

// writeSpans writes the first maxWrittenSpans spans to dir/<name>.jsonl,
// one JSON object a line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans[:min(len(spans), maxWrittenSpans)] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
