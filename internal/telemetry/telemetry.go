// Package telemetry is the observability core of the library: lock-free
// counters for deques, their DCAS substrate, schedulers and servers, plus
// a bounded flight recorder (flight.go) whose dumps the linearizability
// checker can replay (replay.go) and a stdlib-only Prometheus text
// exporter over one registry (registry.go, prometheus.go).
//
// The paper proves that every operation linearizes at exactly one DCAS
// (Section 5); at runtime that proof is invisible unless executions are
// observable.  Sundell–Tsigas's CAS-based deques and Shafiei's
// doubly-linked lists both characterize their algorithms by retry and
// amortized-step behaviour under contention — the quantities this package
// makes visible per end: a retry storm on the right end of one deque is
// distinguishable from healthy traffic on the left end of another.
//
// Every counter lives in one shape, the row: at most rowWidth atomic
// counters padded to a full false-sharing range.  A counter set is rows
// of one kind, named by one []string table (CounterNames, RefNames,
// DCASNames, SchedCounterNames, ServeCounterNames), read back as Counts,
// and rendered by one Prometheus loop.  The sets differ only
// in how a writer picks its row:
//
//   - deque ends and LFRC ref transfers: a shard of three rows picked by
//     the recording goroutine's stack address (metrics.StackLane);
//   - DCAS: one of DCASLanes rows picked by the first location's token;
//   - scheduler: one row per worker, plus the external row;
//   - server: one row per tenant.
//
// Design constraints, in order:
//
//   - Disabled must cost a nil check.  The deque cores carry a *Sink and
//     test it once per completed operation; all per-attempt tallies live
//     in operation-local variables until that single flush.
//   - Enabled must not create new contention.  Rows are padded a full
//     false-sharing range apart (the //dequevet:contended discipline, so
//     padlayout vets a shard's rows at compile time) — telemetry for the
//     left end must never invalidate the line the right end's counters
//     occupy, for exactly the reason the deque separates the ends
//     themselves.
//
// Snapshots are sums over rows read without synchronization: totals are
// eventually exact (after quiescence) and monotone per counter, but a
// snapshot taken during operation may split an operation's counters — a
// push may be visible in Pushes before its Retries arrive.  This is the
// standard statistical-counter contract.
package telemetry

import (
	"runtime"
	"sync/atomic"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/metrics"
)

// rowWidth is the most counters one row holds.
const rowWidth = 8

// row is the one counter bank every telemetry source records into,
// padded to a full false-sharing range so that two rows — adjacent in a
// shard, a slice or the DCAS lanes — never share a line.
type row struct {
	c [rowWidth]atomic.Uint64
	_ [dcas.FalseSharingRange - 8*rowWidth]byte
}

// load reads the row, one unsynchronized load per counter.
func (r *row) load() Counts {
	var c Counts
	for i := range r.c {
		c[i] = r.c[i].Load()
	}
	return c
}

// Counts is one row's values (or a sum of rows), indexed by the row's
// counter enum and named by its names table.
type Counts [rowWidth]uint64

// add adds o into c counter by counter.
func (c *Counts) add(o Counts) {
	for i := range o {
		c[i] += o[i]
	}
}

// End identifies the deque end an event is attributed to.
type End uint8

// The two deque ends.
const (
	Left  End = 0
	Right End = 1
	// NumEnds sizes per-end tables.
	NumEnds = 2
)

// EndNames names the ends, indexed by End.
var EndNames = []string{"left", "right"}

// Counter enumerates the columns of an end row.
type Counter uint8

// The per-end counters.  Pushes/Pops count operations that returned Okay;
// FullHits/EmptyHits count operations that observed the boundary, so a
// deque end's completed-operation total is the sum of all four.
const (
	// Pushes counts pushes that returned Okay on this end.
	Pushes Counter = iota
	// Pops counts pops that returned Okay on this end.
	Pops
	// FullHits counts pushes that observed the deque full at their
	// linearization point.
	FullHits
	// EmptyHits counts pops that observed the deque empty at their
	// linearization point.
	EmptyHits
	// Retries counts operation attempts that lost a race and looped — the
	// per-end DCAS retry number the contention literature reports.
	Retries
	// LogicalDeletes counts successful logical deletions (the list cores'
	// value-nulling DCAS; equal to Pops for those cores, recorded
	// separately so the two-phase deletion protocol is observable).
	LogicalDeletes
	// PhysicalDeletes counts nodes physically spliced out of the list on
	// this side (by this deque's deleteRight/deleteLeft passes).
	PhysicalDeletes
	// Grows counts storage growth events attributed to this end (the
	// Chase–Lev core's circular-array doublings, which happen on the
	// owner's push path).  Zero for the fixed-capacity cores.
	Grows
	// NumCounters is the end row's width.
	NumCounters
)

// CounterNames names the end-row counters, indexed by Counter.
var CounterNames = []string{"pushes", "pops", "full_hits", "empty_hits", "retries",
	"logical_deletes", "physical_deletes", "grows"}

// The ref row's columns: LFRC reference-count transfer events, which have
// no end attribution (a count transfer serves whichever operations reach
// the node).
const (
	RefIncs = iota
	RefDecs
	RefFrees
)

// RefNames names the ref-row counters.
var RefNames = []string{"incs", "decs", "frees"}

// The DCAS columns.  A lane row holds attempts and failures; a
// snapshot's DCAS counts add the derived successes and the backoff
// policy's spins and yields.
const (
	DCASAttempts = iota
	DCASFailures
	DCASSuccesses
	DCASBackoffSpins
	DCASBackoffYields
)

// DCASNames names the DCAS snapshot counters.
var DCASNames = []string{"attempts", "failures", "successes", "backoff_spins", "backoff_yields"}

// DCASLanes is the number of DCAS lanes, a power of two.  Four separates
// the anchors of every backend: the array deque's end words get
// consecutive tokens, the list sentinels' inner pointers are two (plain,
// dummy) or three (LFRC) tokens apart.
const DCASLanes = 4

// DCASLane is the lane a DCAS is counted in: its first location's token
// modulo DCASLanes.  Every array and list core passes the operating end's
// anchor word first, and AssignIDs gives a constructor's locations
// consecutive tokens, so the two ends of one deque count into different
// lanes and recording does not couple the ends the algorithm keeps apart.
func DCASLane(first *dcas.Loc) uint64 { return first.ID() & (DCASLanes - 1) }

// shard is one stripe of a Sink's end and ref rows.  The rows are
// declared contended: padlayout recomputes this struct's layout and
// rejects any edit that brings two rows within one false-sharing range
// of each other.
type shard struct {
	//dequevet:contended left-end row, written by left-end operations
	left row
	//dequevet:contended right-end row, written by right-end operations
	right row
	//dequevet:contended refcount-transfer row, written by LFRC count transfers
	ref row
}

// end selects a shard's row for one end.
func (sh *shard) end(e End) *row {
	if e == Left {
		return &sh.left
	}
	return &sh.right
}

// dcasBank is a sink's DCAS lanes and the backoff counters.  The leading
// pad keeps lane 0's counters a false-sharing range away from whatever
// the allocator places before the bank (without it,
// BenchmarkPublicAPI/Array[int]/ends2/lat ran ~35% slower on a 2-vCPU
// Xeon).  The backoff
// counters are written only after a lost race, so they sit behind the
// last lane's padding.
type dcasBank struct {
	_       dcas.CacheLinePad
	lanes   [DCASLanes]row
	backoff dcas.Stats
}

// Sink accumulates one deque's telemetry.  All methods are safe for
// concurrent use; a nil *Sink is the disabled state and must be checked
// by the caller (the cores do) — methods on a nil Sink panic by design,
// so an unchecked call site fails loudly in tests.
type Sink struct {
	shards []shard
	mask   uint32
	lat    *latBank  // nil unless EnableLatency was called (latency.go)
	dcas   *dcasBank // filled by providers from Instrument
}

// sinkShards returns the shard count: enough stripes that GOMAXPROCS
// concurrent recorders rarely collide, without making snapshots scan an
// unbounded table.
func sinkShards(procs int) int {
	n := 1
	for n < procs && n < 16 {
		n <<= 1
	}
	return n
}

// NewSink returns an empty sink sized for the current schedule.
func NewSink() *Sink {
	n := sinkShards(runtime.GOMAXPROCS(0))
	return &Sink{shards: make([]shard, n), mask: uint32(n - 1), dcas: new(dcasBank)}
}

// shard picks the recording goroutine's stripe from its stack address
// (metrics.StackLane).
func (s *Sink) shard() *shard {
	return &s.shards[metrics.StackLane(s.mask)]
}

// Op records one completed operation: outcome is Pushes, Pops, FullHits
// or EmptyHits, and retries is the number of attempts the operation lost
// before completing (0 for a first-try success).
//
// Kept out of line so the cores' per-return-site flush helpers (a nil
// check guarding this call) stay within the inlining budget: the
// disabled-telemetry contract is that every hot-path return site costs
// one inlined nil check, never a function call.
//
//go:noinline
func (s *Sink) Op(end End, outcome Counter, retries uint64) {
	r := s.shard().end(end)
	r.c[outcome].Add(1)
	if retries != 0 {
		r.c[Retries].Add(retries)
	}
}

// Add adds n to one per-end counter.
func (s *Sink) Add(end End, c Counter, n uint64) {
	if n != 0 {
		s.shard().end(end).c[c].Add(n)
	}
}

// RefInc records one LFRC reference-count increment.
func (s *Sink) RefInc() { s.shard().ref.c[RefIncs].Add(1) }

// RefDec records one LFRC reference-count decrement.
func (s *Sink) RefDec() { s.shard().ref.c[RefDecs].Add(1) }

// RefFree records one LFRC reclamation (a count reaching zero).
func (s *Sink) RefFree() { s.shard().ref.c[RefFrees].Add(1) }

// Instrument wraps a provider so that every DCAS through it is counted
// in this sink's lane for its first location (DCASLane): one add per
// attempt, a second when it fails.  The wrapped provider is otherwise
// semantically identical.
func (s *Sink) Instrument(p dcas.Provider) dcas.Provider {
	return &counted{p: p, b: s.dcas}
}

// Backoff returns the counters a BackoffPolicy charges its spins and
// yields to, reported with the sink's DCAS counts.
func (s *Sink) Backoff() *dcas.Stats { return &s.dcas.backoff }

type counted struct {
	p dcas.Provider
	b *dcasBank
}

func (c *counted) DCAS(a1, a2 *dcas.Loc, o1, o2, n1, n2 uint64) bool {
	ok := c.p.DCAS(a1, a2, o1, o2, n1, n2)
	c.count(a1, ok)
	return ok
}

func (c *counted) DCASView(a1, a2 *dcas.Loc, o1, o2, n1, n2 uint64) (uint64, uint64, bool) {
	v1, v2, ok := c.p.DCASView(a1, a2, o1, o2, n1, n2)
	c.count(a1, ok)
	return v1, v2, ok
}

func (c *counted) count(first *dcas.Loc, ok bool) {
	r := &c.b.lanes[DCASLane(first)]
	r.c[DCASAttempts].Add(1)
	if !ok {
		r.c[DCASFailures].Add(1)
	}
}

// Snapshot is a point-in-time sum of a sink's rows.  See the package
// comment for the consistency contract.
type Snapshot struct {
	// Ends holds each end's counters, indexed by End and Counter.
	Ends [NumEnds]Counts
	// Ref holds the LFRC transfer counters, named by RefNames.
	Ref Counts
	// Lanes holds each DCAS lane's attempts and failures.
	Lanes [DCASLanes]Counts
	// DCAS sums the lanes and adds the derived successes and the backoff
	// counters, named by DCASNames.
	DCAS Counts
	// Latency carries the duration histograms; nil unless the sink was
	// built with EnableLatency.
	Latency *LatencySnapshot
}

// Snapshot sums all rows.  Successes is attempts − failures, clamped at
// zero: the lanes' counters are loaded one by one with no
// synchronization between them, so a failure can be visible whose
// attempt was loaded before it happened.
func (s *Sink) Snapshot() Snapshot {
	var sn Snapshot
	for i := range s.shards {
		sh := &s.shards[i]
		sn.Ends[Left].add(sh.left.load())
		sn.Ends[Right].add(sh.right.load())
		sn.Ref.add(sh.ref.load())
	}
	for l := range s.dcas.lanes {
		sn.Lanes[l] = s.dcas.lanes[l].load()
		sn.DCAS.add(sn.Lanes[l])
	}
	if a, f := sn.DCAS[DCASAttempts], sn.DCAS[DCASFailures]; f <= a {
		sn.DCAS[DCASSuccesses] = a - f
	}
	sn.DCAS[DCASBackoffSpins] = s.dcas.backoff.BackoffSpins.Load()
	sn.DCAS[DCASBackoffYields] = s.dcas.backoff.BackoffYields.Load()
	sn.Latency = s.latencySnapshot()
	return sn
}
