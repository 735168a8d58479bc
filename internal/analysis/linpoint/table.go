package linpoint

// DefaultTable is the machine-readable form of the Section 5 proof
// obligations: for each public operation of each deque implementation,
// the exact number of commit sites at which an outcome of the operation
// linearizes.  The counts are derived from the paper as follows.
//
// Array deque (Section 3, Figures 2/3/30/31; proof obligations Section
// 5.1): every operation has seven commit sites —
//
//	2  boundary-confirming DCAS (lines 8-10): the Empty/Full return
//	   linearizes at the DCAS that validates the end index together with
//	   its adjacent cell, once through the devirtualized EndLock path
//	   and once through the Provider interface;
//	1  inlined EndLock fast-path cell CAS: the success commit when the
//	   anchor mark was taken inline (the arbitration CAS of the EndLock
//	   protocol — the mark CAS itself is not a linearization point);
//	2  strong DCASView (lines 14-15), EndLock and Provider forms: the
//	   success commit, whose returned view also decides the line 17-18
//	   early Empty/Full returns of Figures 2 and 6;
//	2  weak DCAS, EndLock and Provider forms (the variant the paper
//	   notes requires only the boolean DCAS).
//
// List deques (Section 4; obligations Section 5.2): pops have two commit
// sites (the last-occupied-node DCAS and the general DCAS popping an
// interior value, Figures 18/24), pushes exactly one (the DCAS splicing
// the new node against the sentinel link, Figures 19/25).  The physical
// deletion passes (deleteRight/deleteLeft) and the LFRC reference-count
// operations (Figure 24's addRef/release) perform DCAS operations that
// are deliberately NOT linearization points — a deleted node's value was
// popped at the pop's commit, and refcount motion is invisible to the
// abstract deque — so those functions are intentionally absent here, and
// the analyzer rejects stray annotations on them.
//
// Counters bind each obligation to the telemetry counters its outcomes
// move (the static half of the Σ-conservation law; enforced by the
// telemhook analyzer): every annotated commit site must increment one of
// the named counters on its success path, and every named counter must
// be incremented somewhere in the function.  The cores have no batch
// pops: the public wrapper's PopLMany/PopRMany loop over the single pops
// above, so a batch adds no commit site to obligate.
//
// Timed extends the binding to the latency contract (PR 9): the
// operation stamps its entry and every counter flush carries the stamp,
// so the WithLatency histograms sample exactly the counted population.
// Every counter-obligated operation is Timed except rejections that
// return before doing any work (the Chase–Lev unsupported PushLeft).
var DefaultTable = map[string][]Obligation{
	"dcasdeque/internal/core/arraydeque": {
		{Func: "Deque.PopRight", Points: 7, Paper: "Fig 2, §5.1", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "Deque.PushRight", Points: 7, Paper: "Fig 3, §5.1", Counters: []string{"Pushes", "FullHits"}, Timed: true},
		{Func: "Deque.PopLeft", Points: 7, Paper: "Fig 30, §5.1", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "Deque.PushLeft", Points: 7, Paper: "Fig 31, §5.1", Counters: []string{"Pushes", "FullHits"}, Timed: true},
	},
	"dcasdeque/internal/core/listdeque": {
		{Func: "Deque.PopRight", Points: 2, Paper: "Fig 18, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "Deque.PushRight", Points: 1, Paper: "Fig 19, §5.2", Counters: []string{"Pushes"}, Timed: true},
		{Func: "Deque.PopLeft", Points: 2, Paper: "Fig 18 mirrored, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "Deque.PushLeft", Points: 1, Paper: "Fig 19 mirrored, §5.2", Counters: []string{"Pushes"}, Timed: true},

		{Func: "DummyDeque.PopRight", Points: 2, Paper: "Fig 22, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "DummyDeque.PushRight", Points: 1, Paper: "Fig 23, §5.2", Counters: []string{"Pushes"}, Timed: true},
		{Func: "DummyDeque.PopLeft", Points: 2, Paper: "Fig 22 mirrored, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "DummyDeque.PushLeft", Points: 1, Paper: "Fig 23 mirrored, §5.2", Counters: []string{"Pushes"}, Timed: true},

		{Func: "LFRCDeque.PopRight", Points: 2, Paper: "Fig 24, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "LFRCDeque.PushRight", Points: 1, Paper: "Fig 25, §5.2", Counters: []string{"Pushes"}, Timed: true},
		{Func: "LFRCDeque.PopLeft", Points: 2, Paper: "Fig 24 mirrored, §5.2", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "LFRCDeque.PushLeft", Points: 1, Paper: "Fig 25 mirrored, §5.2", Counters: []string{"Pushes"}, Timed: true},
	},
	// Chase–Lev deque (SPAA'05, as published).  The owner's push
	// linearizes at a plain release store of bottom — the algorithm's
	// whole point is that the owner does not CAS — which the analyzer
	// cannot annotate, so PushRight is obligated to zero CAS commit
	// sites; the zero-count entry still machine-checks that no one adds a
	// stray CAS to the push path.  The steal commits at exactly one
	// CompareAndSwap of the top index, and so does the owner's pop of the
	// last element (the one-element race); the pop's Empty return and its
	// plain take with more than one element left are decided by loads
	// ordered before or after that same word's history, not by additional
	// RMWs.
	"dcasdeque/internal/core/chaselev": {
		{Func: "Deque.PushRight", Points: 0, Paper: "CL §3 pushBottom: plain bottom store", Counters: []string{"Pushes"}, Timed: true},
		{Func: "Deque.PopRight", Points: 1, Paper: "CL §3 popBottom one-element CAS", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		{Func: "Deque.PopLeft", Points: 1, Paper: "CL §3 steal CAS", Counters: []string{"Pops", "EmptyHits"}, Timed: true},
		// Not Timed: the unsupported-end rejection is immediate, so it
		// records no operation latency (the core passes start 0).
		{Func: "Deque.PushLeft", Points: 0, Paper: "unsupported: CL has no pushTop", Counters: []string{"FullHits"}},
	},
}
