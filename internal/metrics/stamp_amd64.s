#include "textflag.h"

// func cpuTicks() uint64
TEXT ·cpuTicks(SB), NOSPLIT, $0-8
	RDTSC
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func cpuid(leaf uint32) (eax, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL DX, edx+12(FP)
	RET
