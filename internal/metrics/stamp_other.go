//go:build !amd64

package metrics

// The fallback: no cycle counter is read on this architecture, so
// calibrate reports none and Stamp is Nanotime, SinceStamp
// Nanotime() - start.

func cpuTicks() uint64 { return 0 }

func invariantTicks() bool { return false }
