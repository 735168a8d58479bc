package telemetry

// The process-wide registry: every named deque, scheduler and server
// registers its telemetry sources here, and the one exporter
// (PrometheusHandler) snapshots the registry on each scrape.

import "sync"

// entry is one registered component's telemetry sources: a deque's
// sink and memory snapshotter, a scheduler's sink
// (RegisterSched) or a server's sink (RegisterServe), never two kinds.
// Entries are stored by pointer: the mem field makes the struct
// non-comparable, so unregistration matches on entry identity rather
// than value equality.
type entry struct {
	sink  *Sink
	mem   func() MemSnapshot
	sched *SchedSink
	serve *ServeSink
}

var (
	registryMu sync.Mutex
	registry   = map[string]*entry{}
)

// Register exposes a deque's telemetry — its sink's operation, ref and
// DCAS counts — under the given name through PrometheusHandler.  mem,
// when non-nil, is called at snapshot time for the deque's
// memory-occupancy ledger.  It runs on every scrape, so it should be
// O(1) counter reads (the arenas' ledgers without their structural
// audit), and it must be safe to call concurrently.  Registering a name
// again replaces the previous entry; the returned function unregisters
// it (idempotently, and only while the entry is still the registered
// one).
func Register(name string, sink *Sink, mem func() MemSnapshot) func() {
	return register(name, &entry{sink: sink, mem: mem})
}

// RegisterSched exposes a scheduler's telemetry under the given name,
// alongside the deques, with the same replace/unregister semantics as
// Register.
func RegisterSched(name string, sink *SchedSink) func() {
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

// exportEntry is one registered component's snapshot: deque entries
// carry Telemetry (+Mem), scheduler entries Sched, server entries
// Serve.
type exportEntry struct {
	Telemetry *Snapshot
	Mem       *MemSnapshot
	Sched     *SchedSnapshot
	Serve     *ServeSnapshot
}
