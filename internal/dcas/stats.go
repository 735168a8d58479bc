package dcas

import "sync/atomic"

// Stats accumulates the algorithm-level backoff work a BackoffPolicy
// does after a lost race.  The paper assumes DCAS is the most expensive
// primitive ("DCAS is a relatively expensive operation ... longer
// latency than traditional CAS, which in turn has longer latency than
// either a read or a write", Section 2), so benchmark experiments report
// retry behaviour alongside throughput: DCAS attempts and failures are
// counted per location by AttrStats, which embeds a Stats for the
// backoff counters.
//
// All counters are updated atomically; a Stats value may be shared by any
// number of goroutines.  The zero value is ready to use.
type Stats struct {
	// BackoffSpins counts pause-loop iterations executed by the
	// algorithm-level backoff (BackoffPolicy with this Stats attached).
	BackoffSpins atomic.Uint64
	// BackoffYields counts scheduler yields executed by the
	// algorithm-level backoff once its spin bound is exhausted.
	BackoffYields atomic.Uint64
}

// Snapshot is a plain-value copy of an AttrStats' aggregate counts, for
// exporters and reports that want to read the counters once and hand
// them around without carrying atomics.
//
// The counters are loaded one by one with no synchronization between
// them, so a snapshot taken while operations (or a Reset) are in flight
// may be mutually inconsistent — e.g. a failure counted whose attempt is
// not yet visible.  Successes is computed from the snapshot's own
// Attempts/Failures pair and clamped to zero rather than wrapping to
// ~2^64 when a concurrent Reset leaves Failures larger.
type Snapshot struct {
	Attempts      uint64 `json:"attempts"`
	Failures      uint64 `json:"failures"`
	Successes     uint64 `json:"successes"`
	BackoffSpins  uint64 `json:"backoff_spins"`
	BackoffYields uint64 `json:"backoff_yields"`
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.BackoffSpins.Store(0)
	s.BackoffYields.Store(0)
}
