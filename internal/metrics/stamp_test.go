package metrics

import (
	"testing"
	"time"
)

// stampModes runs f once on the clock CalibrateStamp chose and once on
// the fallback (Stamp = Nanotime), forced by clearing the tick factor.
// On a host without an invariant cycle counter both runs take the
// fallback.
func stampModes(t *testing.T, f func(t *testing.T)) {
	CalibrateStamp()
	if nsPerTick == 0 {
		t.Log("no invariant cycle counter: Stamp is Nanotime")
	}
	t.Run("chosen", f)
	t.Run("fallback", func(t *testing.T) {
		saved := nsPerTick
		nsPerTick = 0
		t.Cleanup(func() { nsPerTick = saved })
		f(t)
	})
}

// TestSinceStampAgreesWithNanotime checks the calibrated conversion: over
// a ~20 ms sleep, SinceStamp lies within 2% of the Nanotime interval.
// The Nanotime reads bracket the stamp pair from inside and outside, so
// a preemption between a stamp and its neighbouring clock read widens
// the window instead of failing the test.
func TestSinceStampAgreesWithNanotime(t *testing.T) {
	stampModes(t, func(t *testing.T) {
		outer0 := Nanotime()
		s := Stamp()
		inner0 := Nanotime()
		time.Sleep(20 * time.Millisecond)
		inner1 := Nanotime()
		el := SinceStamp(s)
		outer1 := Nanotime()
		lo, hi := 0.98*float64(inner1-inner0), 1.02*float64(outer1-outer0)
		if float64(el) < lo || float64(el) > hi {
			t.Fatalf("SinceStamp = %d ns, want within [%.0f, %.0f] (Nanotime intervals %d..%d ns)",
				el, lo, hi, inner1-inner0, outer1-outer0)
		}
	})
}

// TestStampNeverZero checks the sentinel invariant: 0 means "latency
// off" to the cores, so no stamp may read 0.
func TestStampNeverZero(t *testing.T) {
	stampModes(t, func(t *testing.T) {
		for i := 0; i < 100000; i++ {
			if Stamp() == 0 {
				t.Fatalf("Stamp() = 0 on read %d", i)
			}
		}
	})
}

// TestSinceStampBackwardsIsZero checks the clamp: a start stamp ahead of
// the clock (a goroutine that migrated to a core whose counter reads
// behind) measures 0, not a wrapped 2⁶⁴-scale duration.  The smallest
// lead, 2²⁴ ticks or nanoseconds, is milliseconds: more than a stamp
// read takes even when preempted.
func TestSinceStampBackwardsIsZero(t *testing.T) {
	stampModes(t, func(t *testing.T) {
		for _, ahead := range []int64{1 << 24, 1 << 32, 1 << 48} {
			if el := SinceStamp(Stamp() + ahead); el != 0 {
				t.Fatalf("SinceStamp of a stamp %d units ahead = %d, want 0", ahead, el)
			}
		}
		if el := SinceStamp(Stamp()); el > uint64(time.Second) {
			t.Fatalf("back-to-back SinceStamp = %d ns", el)
		}
	})
}

// TestCalibrationSane checks that a chosen counter runs at 0.25–16 GHz,
// the range calibrate accepts, and that calibrating again changes
// nothing.
func TestCalibrationSane(t *testing.T) {
	CalibrateStamp()
	k := nsPerTick
	if k != 0 && (k < 1.0/16 || k > 4) {
		t.Fatalf("nsPerTick = %g, outside the accepted range", k)
	}
	CalibrateStamp()
	if nsPerTick != k {
		t.Fatalf("second CalibrateStamp moved nsPerTick from %g to %g", k, nsPerTick)
	}
	t.Logf("nsPerTick = %g (0: fallback)", k)
}

var stampSink int64

// BenchmarkClock prices one read of each clock: Nanotime, and Stamp on
// the chosen clock and on the fallback.
func BenchmarkClock(b *testing.B) {
	CalibrateStamp()
	b.Run("Nanotime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stampSink += Nanotime()
		}
	})
	b.Run("Stamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stampSink += Stamp()
		}
	})
	b.Run("Stamp/fallback", func(b *testing.B) {
		saved := nsPerTick
		nsPerTick = 0
		defer func() { nsPerTick = saved }()
		for i := 0; i < b.N; i++ {
			stampSink += Stamp()
		}
	})
}
