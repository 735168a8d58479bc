package metrics

// cpuTicks reads the time-stamp counter (RDTSC).
func cpuTicks() uint64

// cpuid executes CPUID for a leaf (subleaf 0) and returns EAX and EDX.
func cpuid(leaf uint32) (eax, edx uint32)

// invariantTicks reports whether the time-stamp counter is invariant:
// CPUID leaf 0x80000007 (advanced power management), EDX bit 8.
func invariantTicks() bool {
	if maxExt, _ := cpuid(0x80000000); maxExt < 0x80000007 {
		return false
	}
	_, edx := cpuid(0x80000007)
	return edx&(1<<8) != 0
}
