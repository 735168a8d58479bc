package metrics

// The operation stamp: the clock the deque cores and the telemetry Sink
// time each latency-enabled operation with.
//
// Nanotime is runtime.nanotime, a vDSO clock_gettime.  On a 2-vCPU KVM
// guest (Intel Xeon, Go 1.24) one call costs 45–50 ns, more than half
// of an uncontended array push or pop, so two of them per operation made
// the latency layer dearer than the operation it measured.  A raw read
// of the CPU's cycle counter costs ~22 ns on the same guest.  Where the
// counter is invariant (it ticks at a constant rate in every P-, C- and
// T-state, and the kernel keeps it synchronized across cores), Stamp
// reads it and SinceStamp converts the tick delta to nanoseconds with a
// factor calibrated once per process against Nanotime.  Everywhere else
// Stamp is Nanotime itself.
//
// The factor is measured lazily, by CalibrateStamp, which the telemetry
// Sink calls when latency recording is enabled: a process that never
// times an operation pays neither the calibration window nor the CPUID
// probe.  Until then, and for good when no invariant counter is found or
// the calibration does not come out sane, Stamp is the fallback.

import (
	"sync"
	"time"
)

// calibrationWindow is the shortest interval the tick rate is measured
// over: long enough that the ~50 ns skew of each Nanotime/counter read
// pair is a few parts in 10⁵ of it, short enough that the one
// construction paying for it does not notice.
const calibrationWindow = 2 * time.Millisecond

var (
	calibrateOnce sync.Once
	// nsPerTick converts cycle-counter ticks to nanoseconds; 0 means
	// Stamp is Nanotime.  Written once, inside calibrateOnce, before any
	// latency-enabled core exists to read it.
	nsPerTick float64
)

// CalibrateStamp measures the cycle counter's rate against Nanotime on
// first use and switches Stamp to the counter if the rate is sane; later
// calls return at once.  Call it before taking the first stamp: a stamp
// taken by the fallback clock must not be measured by the counter.
func CalibrateStamp() {
	calibrateOnce.Do(func() { nsPerTick = calibrate() })
}

// Stamp returns an operation's entry stamp, to be passed to SinceStamp.
// Its unit is cycle-counter ticks or nanoseconds, whichever clock
// CalibrateStamp chose; only differences taken by SinceStamp have a
// meaning.  It is never 0, the "latency off" sentinel the cores pass
// instead of a stamp: the low bit is forced on, a sub-nanosecond error.
func Stamp() int64 {
	if nsPerTick != 0 {
		return int64(cpuTicks() | 1)
	}
	return Nanotime() | 1
}

// SinceStamp returns the nanoseconds elapsed since start, a Stamp.  A
// goroutine that migrated between cores may read a counter a few ticks
// behind its start; such a negative delta clamps to 0, so it still counts
// as one observation.
func SinceStamp(start int64) uint64 {
	d := Stamp() - start
	if d <= 0 {
		return 0
	}
	if k := nsPerTick; k != 0 {
		return uint64(float64(d) * k)
	}
	return uint64(d)
}

// calibrate returns the counter's nanoseconds per tick, or 0 when Stamp
// must stay on Nanotime: no invariant counter, or a rate outside
// 0.25–16 GHz (a hypervisor that traps or scales the counter).
func calibrate() float64 {
	if !invariantTicks() {
		return 0
	}
	n0, c0 := readPair()
	time.Sleep(calibrationWindow)
	n1, c1 := readPair()
	dn, dc := n1-n0, int64(c1-c0)
	if dn < int64(calibrationWindow) || dc <= 0 {
		return 0
	}
	k := float64(dn) / float64(dc)
	if k < 1.0/16 || k > 4 {
		return 0
	}
	return k
}

// readPair reads Nanotime bracketed by two counter reads and returns it
// with the brackets' midpoint, keeping the tightest of a few tries so a
// preemption between the reads does not skew the rate.
func readPair() (ns int64, ticks uint64) {
	best := ^uint64(0)
	for range 4 {
		a := cpuTicks()
		n := Nanotime()
		b := cpuTicks()
		if b-a < best {
			best, ns, ticks = b-a, n, a+(b-a)/2
		}
	}
	return ns, ticks
}
