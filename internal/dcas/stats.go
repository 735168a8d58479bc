package dcas

import "sync/atomic"

// Stats accumulates the algorithm-level backoff work a BackoffPolicy
// does after a lost race.  The paper assumes DCAS is the most expensive
// primitive ("DCAS is a relatively expensive operation ... longer
// latency than traditional CAS, which in turn has longer latency than
// either a read or a write", Section 2), so benchmark experiments report
// retry behaviour alongside throughput: DCAS attempts and failures are
// counted in the telemetry sink's DCAS lanes, which hold a Stats for the
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
