#include "textflag.h"

// func hasAVX() bool
//
// Reports whether the CPU has AVX (CPUID.1:ECX bit 28) and FMA (bit 12)
// and the OS saves the YMM state: OSXSAVE (CPUID.1:ECX bit 27) and XCR0
// bits 1 (SSE) and 2 (AVX) set.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
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

// func hasAVX512() bool
//
// Reports whether the CPU has AVX, FMA and AVX-512F (CPUID.7.0:EBX bit
// 16) and the OS saves the whole ZMM state: OSXSAVE, and XCR0 bits 1
// (SSE), 2 (AVX), 5 (opmask), 6 (upper halves of ZMM0–15) and 7
// (ZMM16–31), the mask 0xE6. FMA is required because the avx512 level
// runs the VEX-encoded FMA loops of the avx level for the rest.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID                // EAX = highest basic leaf
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10000, BX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
