package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// parseBench extracts ns/op samples from `go test -bench` output, keyed
// by benchmark name with the trailing -GOMAXPROCS suffix stripped (so
// runs compare across machines).  Repeated -count runs of one benchmark
// accumulate as samples under the same key.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark result lines:  BenchmarkName-8  1234  56.7 ns/op  [...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var ns float64
		found := false
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchguard: bad ns/op %q in %q", fields[i], sc.Text())
				}
				ns, found = v, true
				break
			}
		}
		if !found {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = append(out[name], ns)
	}
	return out, sc.Err()
}

// median returns the middle sample (mean of the middle two for even
// counts).  Medians of repeated -count runs resist the occasional
// scheduler hiccup that a mean would absorb into the verdict.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate is one parsed -headgate: the candidate's median may exceed the
// reference's by at most budget percent.
type gate struct {
	cand, ref string
	budget    float64
}

// parseGate parses a "candidate=reference@pct" spec.  The budget is
// required: each gate's budget is set from its own measured floor, so
// there is no default to fall back on.
func parseGate(spec string) (gate, error) {
	body, pct, ok := strings.Cut(spec, "@")
	if !ok {
		return gate{}, fmt.Errorf("-headgate %q has no budget, want candidate=reference@pct", spec)
	}
	budget, err := strconv.ParseFloat(pct, 64)
	if err != nil || budget < 0 {
		return gate{}, fmt.Errorf("bad -headgate budget %q in %q, want a non-negative percent", pct, spec)
	}
	cand, ref, ok := strings.Cut(body, "=")
	if !ok || cand == "" || ref == "" {
		return gate{}, fmt.Errorf("bad -headgate %q, want candidate=reference@pct", spec)
	}
	return gate{cand, ref, budget}, nil
}

// judge evaluates the gate against the samples and returns its verdict
// line and the candidate's overhead in percent of the reference.
func (g gate) judge(samples map[string][]float64) (string, float64, error) {
	cs := samples[g.cand]
	if len(cs) == 0 {
		return "", 0, fmt.Errorf("-headgate candidate %q produced no ns/op samples "+
			"(check the -bench pattern matches it and the benchmark actually ran)", g.cand)
	}
	rs := samples[g.ref]
	if len(rs) == 0 {
		return "", 0, fmt.Errorf("-headgate reference %q produced no ns/op samples "+
			"(check the -bench pattern matches it and the benchmark actually ran)", g.ref)
	}
	c, r := median(cs), median(rs)
	if r == 0 {
		return "", 0, fmt.Errorf("-headgate reference %q has a 0 ns/op median; overhead relative to it is undefined", g.ref)
	}
	pct := (c - r) / r * 100
	return fmt.Sprintf("%-60s %10.1f vs %10.1f ns/op  %+6.2f%% (head gate vs %s, budget %.1f%%)",
		g.cand, c, r, pct, g.ref, g.budget), pct, nil
}
