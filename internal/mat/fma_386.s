#include "textflag.h"

// func fmaSD(x, y, z float64) float64
TEXT ·fmaSD(SB), NOSPLIT, $0-32
	MOVSD       x+0(FP), X0
	MOVSD       y+8(FP), X1
	MOVSD       z+16(FP), X2
	VFMADD231SD X1, X0, X2 // z += x·y, rounded once
	MOVSD       X2, ret+24(FP)
	RET

// func hasFMA386() bool
//
// The test of hasAVX in cpu_amd64.s: CPUID.1:ECX has AVX (bit 28), FMA
// (bit 12) and OSXSAVE (bit 27), and XCR0 has bits 1 (SSE) and 2 (AVX).
TEXT ·hasFMA386(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
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
