package telemetry

// Replay: re-check a flight-recorder dump against the sequential
// specification.  This closes the observability loop the package exists
// for — the paper proves every operation linearizes at one DCAS
// (Section 5), the flight recorder captures what a real execution did,
// and Replay re-establishes (or refutes) the theorem's conclusion for
// that execution.

import (
	"fmt"

	"dcasdeque/internal/verify/hist"
	"dcasdeque/internal/verify/linearize"
)

// ReplayResult summarizes a successful replay.
type ReplayResult struct {
	// Windows is the number of windows checked.
	Windows int
	// Events is the total number of operations replayed.
	Events int
	// StatesExplored sums the checker's search effort across windows.
	StatesExplored int
}

// ReplayError reports the first window that failed to certify, with the
// checker's rendering of the offending history.
type ReplayError struct {
	// Window is the index of the failing window in the replayed slice.
	Window int
	// Reason distinguishes truncation/size rejections from genuine
	// linearizability violations.
	Reason string
	// History is the offending window's operations, rendered for a
	// post-mortem (empty for rejections that precede checking).
	History string
}

// Error implements error.
func (e *ReplayError) Error() string {
	s := fmt.Sprintf("telemetry: replay of window %d failed: %s", e.Window, e.Reason)
	if e.History != "" {
		s += "\nhistory:\n" + e.History
	}
	return s
}

// Replay checks every window against the sequential deque specification.
// It returns a *ReplayError describing the first window that is
// truncated, oversized, or — the interesting case — not linearizable.
func Replay(ws []Window) (ReplayResult, error) {
	var res ReplayResult
	for i, w := range ws {
		if w.Truncated {
			return res, &ReplayError{Window: i, Reason: "window truncated (ring overflow); history incomplete"}
		}
		ops := make([]hist.Op, len(w.Events))
		for j, e := range w.Events {
			ops[j] = e.Op()
		}
		r, err := linearize.Check(ops, w.Capacity, w.Initial)
		if err != nil {
			return res, &ReplayError{Window: i, Reason: err.Error()}
		}
		res.Windows++
		res.Events += len(ops)
		res.StatesExplored += r.StatesExplored
		if !r.Ok {
			return res, &ReplayError{
				Window:  i,
				Reason:  fmt.Sprintf("history is not linearizable (%d states explored)", r.StatesExplored),
				History: linearize.Explain(ops),
			}
		}
	}
	return res, nil
}
