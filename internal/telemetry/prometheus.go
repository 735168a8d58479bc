package telemetry

// The exporter: the registry rendered in the Prometheus 0.0.4 text
// format, the one way telemetry leaves a process, so a scrape target
// needs nothing beyond net/http.  Counters become *_total families
// labelled by component and end, worker, tenant or arena; the latency
// histograms become native Prometheus histograms (cumulative
// `le`-bucketed counts in seconds) plus quantile gauges (min, p50, p90,
// p99, p999, max), so both histogram_quantile over buckets and the
// pre-computed quantiles are available to dashboards; the memory
// ledgers become a counter family and two gauge families.
//
// Bucket exposition collapses the 8 log-linear sub-buckets per
// power-of-two exponent into one `le` bound: Prometheus stores every
// series a scrape exposes, and 512 buckets per histogram × 4 histograms
// per deque is cardinality no scrape config would thank us for.  The
// collapse only widens buckets (relative error 100% at the exponent
// scale instead of 12.5%); the quantile gauges keep the full
// resolution.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"dcasdeque/internal/arena"
	"dcasdeque/internal/metrics"
)

// PrometheusHandler returns an http.Handler serving every registered
// deque's, scheduler's and server's telemetry in the Prometheus text
// exposition format.  Mount it wherever the scrape config points
// (conventionally /metrics).
func PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		WritePrometheus(&b)
		_, _ = fmt.Fprint(w, b.String())
	})
}

// promFamily accumulates one metric family's samples so the exposition
// can group them under a single HELP/TYPE header, as the format
// requires.
type promFamily struct {
	name, help, typ string
	samples         []string
}

// add appends the sample name+suffix{labels} v (suffix is a histogram's
// _bucket, _sum or _count, else empty).
func (f *promFamily) add(suffix, labels string, v any) {
	f.samples = append(f.samples, fmt.Sprintf("%s%s{%s} %v", f.name, suffix, labels, v))
}

// counts adds one sample per named counter of c, labelled ls plus
// key="name": the one rendering of every counter set.
func (f *promFamily) counts(ls, key string, names []string, c Counts) {
	for i, name := range names {
		f.add("", ls+","+key+`="`+name+`"`, c[i])
	}
}

// labelEscaper escapes a label value as the exposition format requires:
// backslash, double quote and line feed, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labels renders name/value pairs as the inside of a sample's braces.
func labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		_, _ = labelEscaper.WriteString(&b, kv[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

// WritePrometheus renders the full exposition into b.
func WritePrometheus(b *strings.Builder) {
	all := snapshotAll()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)

	ops := &promFamily{name: "dcasdeque_ops_total",
		help: "Completed deque operations by end and outcome class.", typ: "counter"}
	ref := &promFamily{name: "dcasdeque_ref_total",
		help: "LFRC reference-count transfer events.", typ: "counter"}
	dcasF := &promFamily{name: "dcasdeque_dcas_total",
		help: "DCAS emulation events (instrumented providers only).", typ: "counter"}
	opLat := &promFamily{name: "dcasdeque_op_latency_seconds",
		help: "Deque operation latency by end (entry to linearized return).", typ: "histogram"}
	spinLat := &promFamily{name: "dcasdeque_op_spin_latency_seconds",
		help: "Latency of contended deque operations (>=1 retry) by end.", typ: "histogram"}
	opQ := &promFamily{name: "dcasdeque_op_latency_quantile_seconds",
		help: "Pre-computed deque operation latency quantiles.", typ: "gauge"}
	spinQ := &promFamily{name: "dcasdeque_op_spin_latency_quantile_seconds",
		help: "Pre-computed contended deque operation latency quantiles.", typ: "gauge"}
	arenaF := &promFamily{name: "dcasdeque_arena_events_total",
		help: "Arena slot allocations, recycled frees and gc-mode retirements.", typ: "counter"}
	arenaG := &promFamily{name: "dcasdeque_arena_occupancy",
		help: "Arena occupancy: live slots, their high-water mark, published slabs and their bytes.", typ: "gauge"}
	rings := &promFamily{name: "dcasdeque_ring_chain",
		help: "Chase-Lev ring chain: rings allocated and retired, active-ring cells, bytes retained.", typ: "gauge"}
	schedF := &promFamily{name: "dcasdeque_sched_events_total",
		help: "Scheduler lifecycle events by worker (worker=\"external\": outside any worker).", typ: "counter"}
	schedLat := &promFamily{name: "dcasdeque_sched_latency_seconds",
		help: "Scheduler task-lifecycle latencies (submit->run, steal->run, park->wake).", typ: "histogram"}
	schedQ := &promFamily{name: "dcasdeque_sched_latency_quantile_seconds",
		help: "Pre-computed scheduler lifecycle latency quantiles.", typ: "gauge"}
	serveF := &promFamily{name: "dcasdeque_serve_requests_total",
		help: "Job-service admission outcomes by tenant.", typ: "counter"}
	serveLat := &promFamily{name: "dcasdeque_serve_stage_latency_seconds",
		help: "Job-service request-stage latencies (ingest, submit, run, respond).", typ: "histogram"}
	serveQ := &promFamily{name: "dcasdeque_serve_stage_latency_quantile_seconds",
		help: "Pre-computed job-service stage latency quantiles.", typ: "gauge"}

	for _, n := range names {
		e := all[n]
		if sn := e.Telemetry; sn != nil {
			ls := labels("deque", n)
			for end, c := range sn.Ends {
				ops.counts(labels("deque", n, "end", EndNames[end]), "counter", CounterNames, c)
			}
			ref.counts(ls, "event", RefNames, sn.Ref)
			if l := sn.Latency; l != nil {
				promHists(opLat, opQ, ls, "end", EndNames, l.Op[:])
				promHists(spinLat, spinQ, ls, "end", EndNames, l.Spin[:])
			}
			dcasF.counts(ls, "event", DCASNames, sn.DCAS)
		}
		if m := e.Mem; m != nil {
			promArena(arenaF, arenaG, n, "slots", m.Slots)
			if m.Nodes != nil {
				promArena(arenaF, arenaG, n, "nodes", *m.Nodes)
			}
			if m.Lfrc != nil {
				promArena(arenaF, arenaG, n, "lfrc", *m.Lfrc)
			}
			if r := m.Rings; r != nil {
				rings.add("", labels("deque", n, "gauge", "rings"), r.Rings)
				rings.add("", labels("deque", n, "gauge", "retired"), r.Retired)
				rings.add("", labels("deque", n, "gauge", "cells"), r.Cells)
				rings.add("", labels("deque", n, "gauge", "bytes"), r.Bytes)
			}
		}
		if sn := e.Sched; sn != nil {
			for w, c := range sn.Workers {
				schedF.counts(labels("sched", n, "worker", strconv.Itoa(w)), "event", SchedCounterNames, c)
			}
			schedF.counts(labels("sched", n, "worker", "external"), "event", SchedCounterNames, sn.External)
			if sn.Latencies != nil {
				promHists(schedLat, schedQ, labels("sched", n), "kind", SchedLatencyNames, sn.Latencies)
			}
		}
		if sn := e.Serve; sn != nil {
			for i, c := range sn.Tenants {
				serveF.counts(labels("server", n, "tenant", sn.Names[i]), "outcome", ServeCounterNames, c)
			}
			promHists(serveLat, serveQ, labels("server", n), "stage", ServeStageNames, sn.Stages[:])
		}
	}

	for _, f := range []*promFamily{ops, ref, dcasF, opLat, spinLat, opQ, spinQ, arenaF, arenaG, rings,
		schedF, schedLat, schedQ, serveF, serveLat, serveQ} {
		if len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
}

// promArena renders one arena ledger: its monotone counts into the
// counter family, its occupancy into the gauge family.
func promArena(counts, gauges *promFamily, deque, kind string, o arena.Occupancy) {
	counts.add("", labels("deque", deque, "arena", kind, "event", "allocs"), o.Allocs)
	counts.add("", labels("deque", deque, "arena", kind, "event", "frees"), o.Frees)
	counts.add("", labels("deque", deque, "arena", kind, "event", "retired"), o.Retired)
	gauges.add("", labels("deque", deque, "arena", kind, "gauge", "live"), o.Live)
	gauges.add("", labels("deque", deque, "arena", kind, "gauge", "high_water"), o.HighWater)
	gauges.add("", labels("deque", deque, "arena", kind, "gauge", "slabs"), o.Slabs)
	gauges.add("", labels("deque", deque, "arena", kind, "gauge", "slab_bytes"), o.SlabBytes)
}

// promHists renders each named histogram snapshot, labelled ls plus
// key="name", into hist and its quantile gauges into q.
func promHists(hist, q *promFamily, ls, key string, names []string, hs []metrics.HistogramSnapshot) {
	for i, name := range names {
		l := ls + "," + key + `="` + name + `"`
		promHistogram(hist, l, hs[i])
		promQuantiles(q, l, hs[i])
	}
}

// promHistogram renders one snapshot as a Prometheus histogram:
// cumulative bucket counts with `le` bounds in seconds, collapsing the
// log-linear sub-buckets to one bound per power-of-two exponent (see
// the package comment), then _sum and _count.
func promHistogram(f *promFamily, labels string, h metrics.HistogramSnapshot) {
	// Fold the fine buckets by upper bound exponent: each snapshot
	// bucket's High is its exclusive upper bound in ns; group counts by
	// the next power of two at or above High.
	type bound struct {
		le    float64
		count uint64
	}
	var bounds []bound
	for _, bk := range h.Buckets {
		le := float64(ceilPow2(bk.High)) / 1e9
		if len(bounds) > 0 && bounds[len(bounds)-1].le == le {
			bounds[len(bounds)-1].count += bk.Count
		} else {
			bounds = append(bounds, bound{le: le, count: bk.Count})
		}
	}
	var cum uint64
	for _, bd := range bounds {
		cum += bd.count
		f.add("_bucket", fmt.Sprintf("%s,le=\"%g\"", labels, bd.le), cum)
	}
	f.add("_bucket", labels+`,le="+Inf"`, h.N)
	f.add("_sum", labels, float64(h.Sum)/1e9)
	f.add("_count", labels, h.N)
}

// promQuantiles renders the snapshot's minimum, pre-computed quantiles
// and maximum as gauges labelled by quantile (0 and 1 for the extremes),
// in seconds.
func promQuantiles(f *promFamily, labels string, h metrics.HistogramSnapshot) {
	for _, q := range []struct {
		q string
		v uint64
	}{{"0", h.Min}, {"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}, {"0.999", h.P999}, {"1", h.Max}} {
		f.add("", labels+`,quantile="`+q.q+`"`, float64(q.v)/1e9)
	}
}

// ceilPow2 rounds up to the next power of two (saturating at the bucket
// ceiling ^uint64(0), which bucketLow uses for the top bucket's High).
func ceilPow2(v uint64) uint64 {
	if v == ^uint64(0) {
		return v
	}
	p := uint64(1)
	for p < v && p < 1<<63 {
		p <<= 1
	}
	return p
}
