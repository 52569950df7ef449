#include "textflag.h"

// func hasAVX() bool
//
// Reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS saves
// the YMM state: OSXSAVE (CPUID.1:ECX bit 27) and XCR0 bits 1 (SSE) and
// 2 (AVX) set.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
