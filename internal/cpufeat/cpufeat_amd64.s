#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// Leaf 7 must exist.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  out

	// Leaf 1 ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  out

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  out

	// Leaf 7 subleaf 0 EBX bit 5: AVX2.
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX
	JZ   out
	MOVB $1, ret+0(FP)

out:
	RET
