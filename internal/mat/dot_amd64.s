// SSE2 inner loops for the row kernels: the four-lane dot product of
// dotu and the row-ordered multi-row axpy of the aᵀb reference kernel.
// SSE2 has no fused multiply-add, so every multiply and add rounds
// exactly as the portable Go loops do: both kernels are bit-identical to
// their fallbacks (dotuGo, accumRowsGo).

#include "textflag.h"

// func dotsLanesSSE(n int, x, y *float64, ys, ny int, out *float64)
//
// out[j] = dotu(x[:n], y[j·ys : j·ys+n]) for j < ny. Lanes 0..3 of each
// dot sum x[i]·y[i] over i ≡ 0..3 (mod 4), the n%4 tail goes into lane 0,
// and the result is (lane0 + lane1) + (lane2 + lane3). Four rows of y run
// at once so the eight accumulator chains overlap.
TEXT ·dotsLanesSSE(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ ys+24(FP), R8
	SHLQ $3, R8              // row stride in bytes
	MOVQ ny+32(FP), R9
	MOVQ out+40(FP), DX
	MOVQ CX, R10
	SHRQ $2, R10             // four-lane groups
	ANDQ $3, CX              // tail elements
	LEAQ (R8)(R8*2), R13     // three row strides

quad:
	CMPQ R9, $4
	JLT  one
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R10, R11
	TESTQ R11, R11
	JZ   quadtail

quadloop:
	MOVUPD (AX), X8
	MOVUPD 16(AX), X9
	MOVUPD (BX), X10
	MULPD  X8, X10
	ADDPD  X10, X0
	MOVUPD 16(BX), X11
	MULPD  X9, X11
	ADDPD  X11, X1
	MOVUPD (BX)(R8*1), X10
	MULPD  X8, X10
	ADDPD  X10, X2
	MOVUPD 16(BX)(R8*1), X11
	MULPD  X9, X11
	ADDPD  X11, X3
	MOVUPD (BX)(R8*2), X10
	MULPD  X8, X10
	ADDPD  X10, X4
	MOVUPD 16(BX)(R8*2), X11
	MULPD  X9, X11
	ADDPD  X11, X5
	MOVUPD (BX)(R13*1), X10
	MULPD  X8, X10
	ADDPD  X10, X6
	MOVUPD 16(BX)(R13*1), X11
	MULPD  X9, X11
	ADDPD  X11, X7
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R11
	JNZ  quadloop

quadtail:
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   quadsum

quadtailloop:
	MOVSD (AX), X8
	MOVSD (BX), X10
	MULSD X8, X10
	ADDSD X10, X0
	MOVSD (BX)(R8*1), X10
	MULSD X8, X10
	ADDSD X10, X2
	MOVSD (BX)(R8*2), X10
	MULSD X8, X10
	ADDSD X10, X4
	MOVSD (BX)(R13*1), X10
	MULSD X8, X10
	ADDSD X10, X6
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R11
	JNZ  quadtailloop

quadsum:
	MOVAPD   X0, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X0
	MOVAPD   X1, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X1
	ADDSD    X1, X0
	MOVSD    X0, (DX)
	MOVAPD   X2, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X2
	MOVAPD   X3, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X3
	ADDSD    X3, X2
	MOVSD    X2, 8(DX)
	MOVAPD   X4, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X4
	MOVAPD   X5, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X5
	ADDSD    X5, X4
	MOVSD    X4, 16(DX)
	MOVAPD   X6, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X6
	MOVAPD   X7, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X7
	ADDSD    X7, X6
	MOVSD    X6, 24(DX)
	LEAQ (DI)(R8*4), DI
	ADDQ $32, DX
	SUBQ $4, R9
	JMP  quad

one:
	TESTQ R9, R9
	JZ    done
	XORPS X0, X0
	XORPS X1, X1
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R10, R11
	TESTQ R11, R11
	JZ   onetail

oneloop:
	MOVUPD (AX), X8
	MOVUPD 16(AX), X9
	MOVUPD (BX), X10
	MULPD  X8, X10
	ADDPD  X10, X0
	MOVUPD 16(BX), X11
	MULPD  X9, X11
	ADDPD  X11, X1
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R11
	JNZ  oneloop

onetail:
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   onesum

onetailloop:
	MOVSD (AX), X8
	MOVSD (BX), X10
	MULSD X8, X10
	ADDSD X10, X0
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R11
	JNZ  onetailloop

onesum:
	MOVAPD   X0, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X0
	MOVAPD   X1, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X1
	ADDSD    X1, X0
	MOVSD    X0, (DX)
	ADDQ R8, DI
	ADDQ $8, DX
	DECQ R9
	JMP  one

done:
	RET

// func accumRowsSSE(n int, y, c *float64, cs int, x *float64, xs, rows int)
//
// y[t] += c[i·cs]·x[i·xs + t] for t < n, rows i ascending, skipping a
// coefficient that compares equal to zero. Sixteen columns at a time stay
// in registers across the whole row loop; pairs and a last single column
// cover the rest.
TEXT ·accumRowsSSE(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), DI
	MOVQ c+16(FP), SI
	MOVQ cs+24(FP), R8
	SHLQ $3, R8
	MOVQ x+32(FP), DX
	MOVQ xs+40(FP), R9
	SHLQ $3, R9
	MOVQ rows+48(FP), R10
	XORPS X13, X13

wide:
	CMPQ CX, $16
	JLT  pair
	MOVUPD (DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R11
	TESTQ R11, R11
	JZ   widestore

wideloop:
	MOVSD   (AX), X12
	UCOMISD X13, X12
	JNE     widedo
	JPS     widedo
	JMP     widenext

widedo:
	UNPCKLPD X12, X12
	MOVUPD (BX), X8
	MULPD  X12, X8
	ADDPD  X8, X0
	MOVUPD 16(BX), X9
	MULPD  X12, X9
	ADDPD  X9, X1
	MOVUPD 32(BX), X10
	MULPD  X12, X10
	ADDPD  X10, X2
	MOVUPD 48(BX), X11
	MULPD  X12, X11
	ADDPD  X11, X3
	MOVUPD 64(BX), X8
	MULPD  X12, X8
	ADDPD  X8, X4
	MOVUPD 80(BX), X9
	MULPD  X12, X9
	ADDPD  X9, X5
	MOVUPD 96(BX), X10
	MULPD  X12, X10
	ADDPD  X10, X6
	MOVUPD 112(BX), X11
	MULPD  X12, X11
	ADDPD  X11, X7

widenext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  wideloop

widestore:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  wide

pair:
	CMPQ CX, $2
	JLT  single
	MOVUPD (DI), X0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R11
	TESTQ R11, R11
	JZ   pairstore

pairloop:
	MOVSD   (AX), X12
	UCOMISD X13, X12
	JNE     pairdo
	JPS     pairdo
	JMP     pairnext

pairdo:
	UNPCKLPD X12, X12
	MOVUPD (BX), X8
	MULPD  X12, X8
	ADDPD  X8, X0

pairnext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  pairloop

pairstore:
	MOVUPD X0, (DI)
	ADDQ $16, DI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  pair

single:
	TESTQ CX, CX
	JZ    accdone
	MOVSD (DI), X0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R11
	TESTQ R11, R11
	JZ   singlestore

singleloop:
	MOVSD   (AX), X12
	UCOMISD X13, X12
	JNE     singledo
	JPS     singledo
	JMP     singlenext

singledo:
	MOVSD (BX), X8
	MULSD X12, X8
	ADDSD X8, X0

singlenext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  singleloop

singlestore:
	MOVSD X0, (DI)

accdone:
	RET
