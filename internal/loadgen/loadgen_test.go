package loadgen

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestOpenLoopRejectsUnschedulableRate checks that an open-loop rate
// whose arrival interval rounds to under a nanosecond, or that is not a
// positive finite number, is an error from Run rather than a division by
// zero in the arrival loop.  Each case fails before any request is sent,
// so no server is needed.
func TestOpenLoopRejectsUnschedulableRate(t *testing.T) {
	for _, rate := range []float64{2e9, math.Inf(1), math.NaN(), 0} {
		_, err := Run(Config{URL: "http://127.0.0.1:1/jobs", Mode: "open",
			Rate: rate, Duration: time.Millisecond})
		if err == nil || !strings.Contains(err.Error(), "rate") {
			t.Errorf("Run(open, rate %v) = %v, want a rate error", rate, err)
		}
	}
}
