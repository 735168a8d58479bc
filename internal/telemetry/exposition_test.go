package telemetry_test

// Well-formedness of the one exposition: one deque of each backend, a
// scheduler and a server are registered, and the full /metrics text is
// checked for the format's structural rules and for a series behind
// every number the registry's snapshots hold.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcasdeque/deque"
	"dcasdeque/internal/telemetry"
	"dcasdeque/sched"
	"dcasdeque/serve"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseSample parses `name{k="v",...} value`, unescaping \\, \" and \n
// in label values and rejecting any other escape.
func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	name, rest, hasLabels := strings.Cut(line, "{")
	if !hasLabels {
		name, rest, _ = strings.Cut(line, " ")
		s.name = name
		v, err := strconv.ParseFloat(rest, 64)
		s.value = v
		return s, err
	}
	s.name = name
	for !strings.HasPrefix(rest, "}") {
		key, after, ok := strings.Cut(rest, `="`)
		if !ok {
			return s, fmt.Errorf("label without value")
		}
		var v strings.Builder
		i := 0
		for ; i < len(after) && after[i] != '"'; i++ {
			if after[i] != '\\' {
				v.WriteByte(after[i])
				continue
			}
			i++
			switch {
			case i == len(after):
				return s, fmt.Errorf("escape at end of line")
			case after[i] == '\\' || after[i] == '"':
				v.WriteByte(after[i])
			case after[i] == 'n':
				v.WriteByte('\n')
			default:
				return s, fmt.Errorf("escape \\%c is not in the format", after[i])
			}
		}
		if i == len(after) {
			return s, fmt.Errorf("unterminated label value")
		}
		s.labels[key] = v.String()
		rest = strings.TrimPrefix(after[i+1:], ",")
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(rest, "} "), 64)
	s.value = v
	return s, err
}

// key renders a sample's identity with its labels in a fixed order,
// leaving out the `le` label when withLe is false.
func key(s promSample, withLe bool) string {
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range []string{"deque", "sched", "server", "end", "arena", "worker", "tenant", "kind", "stage", "counter", "event", "gauge", "outcome", "quantile", "le"} {
		if v, ok := s.labels[k]; ok && (withLe || k != "le") {
			fmt.Fprintf(&b, ",%s=%q", k, v)
		}
	}
	return b.String()
}

// checkStructure enforces the text format's grouping rules: one
// HELP/TYPE pair per family, each sample right under its own family's
// header, label values escaped as the format escapes them, and every
// histogram's buckets cumulative with +Inf equal to _count.
func checkStructure(t *testing.T, body string) map[string]promSample {
	t.Helper()
	series := map[string]promSample{}
	seen := map[string]bool{}
	var family, typ string
	type hist struct {
		le, cum, inf, count float64
		hasInf, hasCount    bool
	}
	hists := map[string]*hist{}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, _, _ = strings.Cut(rest, " ")
			if seen[family] {
				t.Fatalf("family %s has a second header", family)
			}
			seen[family] = true
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+family+" ") {
				t.Fatalf("HELP for %s not followed by its TYPE", family)
			}
			i++
			typ = strings.TrimPrefix(lines[i], "# TYPE "+family+" ")
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		base := s.name
		if typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(s.name, suf); ok {
					base = b
					break
				}
			}
		}
		if family == "" || base != family {
			t.Fatalf("sample %q outside its family (under %q)", line, family)
		}
		series[key(s, true)] = s
		if typ != "histogram" {
			continue
		}
		hk := key(promSample{name: family, labels: s.labels}, false)
		h := hists[hk]
		if h == nil {
			h = &hist{le: -1}
			hists[hk] = h
		}
		switch {
		case s.name == family+"_bucket" && s.labels["le"] == "+Inf":
			h.inf, h.hasInf = s.value, true
			if s.value < h.cum {
				t.Fatalf("%q: +Inf below the last finite bucket %v", line, h.cum)
			}
		case s.name == family+"_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil || le <= h.le || s.value < h.cum || h.hasInf {
				t.Fatalf("%q: bucket out of order or not cumulative (after le=%v count=%v)", line, h.le, h.cum)
			}
			h.le, h.cum = le, s.value
		case s.name == family+"_count":
			h.count, h.hasCount = s.value, true
		}
	}
	for k, h := range hists {
		if !h.hasInf || !h.hasCount || h.inf != h.count {
			t.Errorf("histogram %s: +Inf=%v (present %v), _count=%v (present %v)", k, h.inf, h.hasInf, h.count, h.hasCount)
		}
	}
	return series
}

func TestExpositionWellFormed(t *testing.T) {
	// A name carrying every byte the format escapes, plus a tab, which
	// it does not.
	const odd = "odd \"name\" \\ with\nnewline\tand tab"
	oddSink := telemetry.NewSink()
	oddSink.Op(telemetry.Left, telemetry.Pushes, 0)
	defer telemetry.Register(odd, oddSink, nil)()

	opts := []deque.Option{deque.WithLatency()}
	backends := map[string]deque.Deque[int]{
		"wf-array":    deque.NewArray[int](64, append(opts, deque.WithTelemetryName("wf-array"))...),
		"wf-list":     deque.NewList[int](append(opts, deque.WithTelemetryName("wf-list"))...),
		"wf-dummy":    deque.NewList[int](append(opts, deque.WithDummyNodes(), deque.WithTelemetryName("wf-dummy"))...),
		"wf-lfrc":     deque.NewList[int](append(opts, deque.WithLFRC(), deque.WithTelemetryName("wf-lfrc"))...),
		"wf-chaselev": deque.NewChaseLev[int](append(opts, deque.WithTelemetryName("wf-chaselev"))...),
		"wf-mutex":    deque.NewMutex[int](64, append(opts, deque.WithTelemetryName("wf-mutex"))...),
	}
	for _, d := range backends {
		defer d.(interface{ CloseTelemetry() }).CloseTelemetry()
		for i := 0; i < 40; i++ {
			_ = d.PushRight(i)
		}
		for i := 0; i < 30; i++ {
			_, _ = d.PopLeft()
		}
	}

	const workers = 2
	s := sched.New(sched.WithWorkers(workers), sched.WithLatency(), sched.WithTelemetryName("wf-sched"))
	done := make(chan struct{})
	if err := s.Submit(func(w *sched.Worker) { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done

	srv := serve.New(serve.WithName("wf-serve"), serve.WithTenants(serve.TenantConfig{Name: "gold", Weight: 1}))
	rr := httptest.NewRecorder()
	srv.Mux().ServeHTTP(rr, httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"kind":"fib","n":5}`)))
	if rr.Code != 200 {
		t.Fatalf("POST /jobs: %d %s", rr.Code, rr.Body)
	}

	var b strings.Builder
	telemetry.WritePrometheus(&b)
	body := b.String()
	if strings.Contains(body, `\t`) {
		t.Error("exposition escapes a tab, which the format does not allow")
	}
	series := checkStructure(t, body)

	var missing []string
	want := func(name string, kv ...string) {
		s := promSample{name: name, labels: map[string]string{}}
		for i := 0; i+1 < len(kv); i += 2 {
			s.labels[kv[i]] = kv[i+1]
		}
		if _, ok := series[key(s, true)]; !ok {
			missing = append(missing, key(s, true))
		}
	}
	quantiles := []string{"0", "0.5", "0.9", "0.99", "0.999", "1"}
	histogram := func(family string, kv ...string) {
		want(family+"_count", kv...)
		want(family+"_sum", kv...)
		want(family+"_bucket", append(kv, "le", "+Inf")...)
		for _, q := range quantiles {
			want(strings.TrimSuffix(family, "_seconds")+"_quantile_seconds", append(kv, "quantile", q)...)
		}
	}
	want("dcasdeque_ops_total", "deque", odd, "end", "left", "counter", "pushes")

	for name := range backends {
		for _, end := range []string{"left", "right"} {
			for _, c := range telemetry.CounterNames {
				want("dcasdeque_ops_total", "deque", name, "end", end, "counter", c)
			}
			histogram("dcasdeque_op_latency_seconds", "deque", name, "end", end)
			histogram("dcasdeque_op_spin_latency_seconds", "deque", name, "end", end)
		}
		for _, ev := range telemetry.RefNames {
			want("dcasdeque_ref_total", "deque", name, "event", ev)
		}
		for _, ev := range telemetry.DCASNames {
			want("dcasdeque_dcas_total", "deque", name, "event", ev)
		}
		arenas := []string{"slots"}
		switch name {
		case "wf-list", "wf-dummy":
			arenas = append(arenas, "nodes")
		case "wf-lfrc":
			arenas = append(arenas, "lfrc")
		case "wf-chaselev":
			for _, g := range []string{"rings", "retired", "cells", "bytes"} {
				want("dcasdeque_ring_chain", "deque", name, "gauge", g)
			}
		}
		for _, a := range arenas {
			for _, ev := range []string{"allocs", "frees", "retired"} {
				want("dcasdeque_arena_events_total", "deque", name, "arena", a, "event", ev)
			}
			for _, g := range []string{"live", "high_water", "slabs", "slab_bytes"} {
				want("dcasdeque_arena_occupancy", "deque", name, "arena", a, "gauge", g)
			}
		}
	}
	if v := series[key(promSample{name: "dcasdeque_arena_occupancy",
		labels: map[string]string{"deque": "wf-array", "arena": "slots", "gauge": "live"}}, true)].value; v != 10 {
		t.Errorf("wf-array live slots = %v, want 10", v)
	}

	for _, c := range telemetry.SchedCounterNames {
		for w := 0; w < workers; w++ {
			want("dcasdeque_sched_events_total", "sched", "wf-sched", "worker", strconv.Itoa(w), "event", c)
		}
		want("dcasdeque_sched_events_total", "sched", "wf-sched", "worker", "external", "event", c)
	}
	for _, k := range telemetry.SchedLatencyNames {
		histogram("dcasdeque_sched_latency_seconds", "sched", "wf-sched", "kind", k)
	}

	for _, c := range telemetry.ServeCounterNames {
		want("dcasdeque_serve_requests_total", "server", "wf-serve", "tenant", "gold", "outcome", c)
	}
	for _, st := range telemetry.ServeStageNames {
		histogram("dcasdeque_serve_stage_latency_seconds", "server", "wf-serve", "stage", st)
	}
	if len(missing) > 0 {
		t.Errorf("%d series missing, first %q", len(missing), missing[0])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
