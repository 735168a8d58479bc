package telemetry

// The stdlib-only exporter: registered sinks are published under one
// expvar variable ("dcasdeque"), so any process already serving
// /debug/vars exposes its deques' telemetry with zero extra wiring, and
// Handler serves the same numbers as flat `name value` text lines for
// curl/grep-style scraping and the dequestress -watch dashboard.

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
)

// entry is one registered component's telemetry sources: a deque's
// sink+DCAS stats+memory snapshotter, or a scheduler's sink
// (RegisterSched), never both.  Entries are stored by pointer: the mem
// field makes the struct non-comparable, so unregistration matches on
// entry identity rather than value equality.
type entry struct {
	sink  *Sink
	dcas  func() dcas.Snapshot
	mem   func() MemSnapshot
	sched *SchedSink
	serve *ServeSink
}

var (
	registryMu  sync.Mutex
	registry    = map[string]*entry{}
	publishOnce sync.Once
)

// Register exposes a deque's telemetry under the given name via the
// expvar variable "dcasdeque" (and Handler).  dcasSnap, when non-nil, is
// called at snapshot time for the deque's DCAS counts (an
// AttrStats.Snapshot, whose aggregates are derived rather than stored);
// mem, when non-nil, is called at snapshot time for the deque's
// memory-occupancy ledger.  Both must be safe to call concurrently.
// Registering a name again replaces the previous entry; the returned
// function unregisters it (idempotently, and only while the entry is
// still the registered one).
func Register(name string, sink *Sink, dcasSnap func() dcas.Snapshot, mem func() MemSnapshot) func() {
	publishOnce.Do(func() {
		expvar.Publish("dcasdeque", expvar.Func(exportAll))
	})
	return register(name, &entry{sink: sink, dcas: dcasSnap, mem: mem})
}

// RegisterSched exposes a scheduler's telemetry under the given name,
// alongside the deques, with the same replace/unregister semantics as
// Register.
func RegisterSched(name string, sink *SchedSink) func() {
	publishOnce.Do(func() {
		expvar.Publish("dcasdeque", expvar.Func(exportAll))
	})
	return register(name, &entry{sched: sink})
}

func register(name string, e *entry) func() {
	registryMu.Lock()
	registry[name] = e
	registryMu.Unlock()
	return func() {
		registryMu.Lock()
		if registry[name] == e {
			delete(registry, name)
		}
		registryMu.Unlock()
	}
}

// snapshotAll copies the registry and snapshots every entry.  Snapshots
// run outside the registry lock so a slow source never blocks concurrent
// register/unregister calls.
func snapshotAll() map[string]exportEntry {
	registryMu.Lock()
	entries := make(map[string]*entry, len(registry))
	for n, e := range registry {
		entries[n] = e
	}
	registryMu.Unlock()
	out := make(map[string]exportEntry, len(entries))
	for n, e := range entries {
		var ee exportEntry
		if e.sink != nil {
			sn := e.sink.Snapshot()
			ee.Telemetry = &sn
		}
		if e.dcas != nil {
			sn := e.dcas()
			ee.DCAS = &sn
		}
		if e.mem != nil {
			sn := e.mem()
			ee.Mem = &sn
		}
		if e.sched != nil {
			sn := e.sched.Snapshot()
			ee.Sched = &sn
		}
		if e.serve != nil {
			sn := e.serve.Snapshot()
			ee.Serve = &sn
		}
		out[n] = ee
	}
	return out
}

// exportEntry is the JSON shape of one registered component under the
// "dcasdeque" expvar variable; deque entries carry Telemetry (+DCAS),
// scheduler entries carry Sched.
type exportEntry struct {
	Telemetry *Snapshot      `json:"telemetry,omitempty"`
	DCAS      *dcas.Snapshot `json:"dcas,omitempty"`
	Mem       *MemSnapshot   `json:"mem,omitempty"`
	Sched     *SchedSnapshot `json:"sched,omitempty"`
	Serve     *ServeSnapshot `json:"serve,omitempty"`
}

// exportAll is the expvar.Func body: a map of deque name to snapshot,
// marshalled by expvar itself.
func exportAll() any {
	return snapshotAll()
}

// Handler returns an http.Handler serving every registered deque's
// counters as flat text, one `key value` pair per line:
//
//	deques.left.pushes 1042
//	deques.left.retries 13
//	deques.dcas.attempts 2213
//
// sorted by key so scrapes diff cleanly.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var b strings.Builder
		WriteText(&b)
		_, _ = fmt.Fprint(w, b.String())
	})
}

// writeHistText renders one histogram summary as flat-text lines under
// the given key prefix (values in nanoseconds, matching the JSON
// snapshot shape).
func writeHistText(b *strings.Builder, prefix string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(b, "%s.n %d\n", prefix, h.N)
	fmt.Fprintf(b, "%s.sum %d\n", prefix, h.Sum)
	fmt.Fprintf(b, "%s.min %d\n", prefix, h.Min)
	fmt.Fprintf(b, "%s.max %d\n", prefix, h.Max)
	fmt.Fprintf(b, "%s.p50 %d\n", prefix, h.P50)
	fmt.Fprintf(b, "%s.p90 %d\n", prefix, h.P90)
	fmt.Fprintf(b, "%s.p99 %d\n", prefix, h.P99)
	fmt.Fprintf(b, "%s.p999 %d\n", prefix, h.P999)
}

// WriteText renders every registered deque's counters in Handler's flat
// text form.
func WriteText(b *strings.Builder) {
	all := snapshotAll()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := all[n]
		if e.Telemetry != nil {
			for _, end := range [NumEnds]End{Left, Right} {
				oc := e.Telemetry.End(end)
				for c := Counter(0); c < NumCounters; c++ {
					fmt.Fprintf(b, "%s.%v.%v %d\n", n, end, c, oc.get(c))
				}
			}
			r := e.Telemetry.Ref
			fmt.Fprintf(b, "%s.ref.incs %d\n", n, r.Incs)
			fmt.Fprintf(b, "%s.ref.decs %d\n", n, r.Decs)
			fmt.Fprintf(b, "%s.ref.frees %d\n", n, r.Frees)
			if l := e.Telemetry.Latency; l != nil {
				for _, end := range [NumEnds]End{Left, Right} {
					el := l.End(end)
					writeHistText(b, fmt.Sprintf("%s.%v.lat.op", n, end), el.Op)
					writeHistText(b, fmt.Sprintf("%s.%v.lat.spin", n, end), el.Spin)
				}
			}
		}
		if e.Sched != nil {
			for c := SchedCounter(0); c < NumSchedCounters; c++ {
				fmt.Fprintf(b, "%s.sched.%v %d\n", n, c, e.Sched.Total.get(c))
			}
			for w, oc := range e.Sched.Workers {
				for c := SchedCounter(0); c < NumSchedCounters; c++ {
					fmt.Fprintf(b, "%s.sched.w%d.%v %d\n", n, w, c, oc.get(c))
				}
			}
			if l := e.Sched.Latencies; l != nil {
				for k := SchedLatency(0); k < NumSchedLatencies; k++ {
					writeHistText(b, fmt.Sprintf("%s.sched.lat.%v", n, k), l.Get(k))
				}
			}
		}
		if e.Serve != nil {
			for c := ServeCounter(0); c < NumServeCounters; c++ {
				fmt.Fprintf(b, "%s.serve.total.%v %d\n", n, c, e.Serve.Total.get(c))
			}
			for _, tc := range e.Serve.Tenants {
				for c := ServeCounter(0); c < NumServeCounters; c++ {
					fmt.Fprintf(b, "%s.serve.tenant.%s.%v %d\n", n, tc.Tenant, c, tc.get(c))
				}
			}
			for st := ServeStage(0); st < NumServeStages; st++ {
				writeHistText(b, fmt.Sprintf("%s.serve.lat.%v", n, st), e.Serve.Stages.Get(st))
			}
		}
		if e.DCAS != nil {
			fmt.Fprintf(b, "%s.dcas.attempts %d\n", n, e.DCAS.Attempts)
			fmt.Fprintf(b, "%s.dcas.failures %d\n", n, e.DCAS.Failures)
			fmt.Fprintf(b, "%s.dcas.successes %d\n", n, e.DCAS.Successes)
			fmt.Fprintf(b, "%s.dcas.backoff_spins %d\n", n, e.DCAS.BackoffSpins)
			fmt.Fprintf(b, "%s.dcas.backoff_yields %d\n", n, e.DCAS.BackoffYields)
		}
		if e.Mem != nil {
			writeArenaText(b, n+".arena.slots", e.Mem.Slots)
			if e.Mem.Nodes != nil {
				writeArenaText(b, n+".arena.nodes", *e.Mem.Nodes)
			}
			if e.Mem.Lfrc != nil {
				writeArenaText(b, n+".lfrc", *e.Mem.Lfrc)
			}
			if r := e.Mem.Rings; r != nil {
				fmt.Fprintf(b, "%s.rings.rings %d\n", n, r.Rings)
				fmt.Fprintf(b, "%s.rings.retired %d\n", n, r.Retired)
				fmt.Fprintf(b, "%s.rings.cells %d\n", n, r.Cells)
				fmt.Fprintf(b, "%s.rings.bytes %d\n", n, r.Bytes)
			}
		}
	}
}
