// Micro-kernels for the blocked GEMM (see packed.go for the panel layout
// and gemm_kernel_amd64.go for when each runs). Both compute a 4×8 tile
// C = Ap·Bp from packed panels — A interleaved 4 values per k, B
// interleaved 8 values per k — into acc. Per k, row r of the tile adds
// a[r]·b[0:8]: a multiply then an add (never FMA), so each element sums its
// k-terms in ascending order from zero with the same roundings as the
// portable kernel, and all levels produce bit-identical results.

#include "textflag.h"

// func micro4x8avx512(kc int, ap, bp, acc *float64)
//
// Row r of the tile lives in ZMM register Z<r>.
TEXT ·micro4x8avx512(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	TESTQ CX, CX
	JZ    done512

loop512:
	VMOVUPD      (DI), Z4   // b0 … b7
	VBROADCASTSD (SI), Z5   // a0 ×8
	VMULPD       Z4, Z5, Z5
	VADDPD       Z5, Z0, Z0
	VBROADCASTSD 8(SI), Z6  // a1 ×8
	VMULPD       Z4, Z6, Z6
	VADDPD       Z6, Z1, Z1
	VBROADCASTSD 16(SI), Z7 // a2 ×8
	VMULPD       Z4, Z7, Z7
	VADDPD       Z7, Z2, Z2
	VBROADCASTSD 24(SI), Z8 // a3 ×8
	VMULPD       Z4, Z8, Z8
	VADDPD       Z8, Z3, Z3
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          loop512

done512:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VZEROUPPER
	RET

// func micro4x8avx(kc int, ap, bp, acc *float64)
//
// Row r of the tile lives in the YMM pair Y<2r> (columns 0–3) and
// Y<2r+1> (columns 4–7).
TEXT ·micro4x8avx(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD      (DI), Y8    // b0 … b3
	VMOVUPD      32(DI), Y9  // b4 … b7
	VBROADCASTSD (SI), Y10   // a0 ×4
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(SI), Y13  // a1 ×4
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 16(SI), Y10 // a2 ×4
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 24(SI), Y13 // a3 ×4
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func sqNormsAVX512(kc, jt int, w, x, a, a2, qb, qp *float64)
//
// The fused ROUND norms of WeightedSqNorms (packed.go) for one right lane
// panel x of eight points: for each of jt left lane panels of w, the 4×8
// tile Z0–Z3 (row r = one j, eight points) is formed as micro4x8avx512
// forms it, with the left value broadcast, and folded at once, rows in
// ascending j: v2 = y·y, then qb += v2·a_j and qp += v2·a2_j. The sums of
// the eight points live in Z10 (qb) and Z11 (qp) across all panels.
TEXT ·sqNormsAVX512(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ jt+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DI
	MOVQ a+32(FP), R9
	MOVQ a2+40(FP), R10
	MOVQ qb+48(FP), DX
	MOVQ qp+56(FP), R11

	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

sqtile:
	TESTQ  R8, R8
	JZ     sqdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   DI, BX
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     sqfold

sqk:
	VMOVUPD      (BX), Z4   // x: eight points at this k
	VBROADCASTSD (SI), Z5   // w_j0 ×8
	VMULPD       Z4, Z5, Z5
	VADDPD       Z5, Z0, Z0
	VBROADCASTSD 8(SI), Z6  // w_j1 ×8
	VMULPD       Z4, Z6, Z6
	VADDPD       Z6, Z1, Z1
	VBROADCASTSD 16(SI), Z7 // w_j2 ×8
	VMULPD       Z4, Z7, Z7
	VADDPD       Z7, Z2, Z2
	VBROADCASTSD 24(SI), Z8 // w_j3 ×8
	VMULPD       Z4, Z8, Z8
	VADDPD       Z8, Z3, Z3
	ADDQ         $32, SI
	ADDQ         $64, BX
	DECQ         R12
	JNZ          sqk

sqfold:
	VMULPD       Z0, Z0, Z0
	VBROADCASTSD (R9), Z5
	VMULPD       Z5, Z0, Z5
	VADDPD       Z5, Z10, Z10
	VBROADCASTSD (R10), Z6
	VMULPD       Z6, Z0, Z6
	VADDPD       Z6, Z11, Z11
	VMULPD       Z1, Z1, Z1
	VBROADCASTSD 8(R9), Z5
	VMULPD       Z5, Z1, Z5
	VADDPD       Z5, Z10, Z10
	VBROADCASTSD 8(R10), Z6
	VMULPD       Z6, Z1, Z6
	VADDPD       Z6, Z11, Z11
	VMULPD       Z2, Z2, Z2
	VBROADCASTSD 16(R9), Z5
	VMULPD       Z5, Z2, Z5
	VADDPD       Z5, Z10, Z10
	VBROADCASTSD 16(R10), Z6
	VMULPD       Z6, Z2, Z6
	VADDPD       Z6, Z11, Z11
	VMULPD       Z3, Z3, Z3
	VBROADCASTSD 24(R9), Z5
	VMULPD       Z5, Z3, Z5
	VADDPD       Z5, Z10, Z10
	VBROADCASTSD 24(R10), Z6
	VMULPD       Z6, Z3, Z6
	VADDPD       Z6, Z11, Z11
	ADDQ         $32, R9
	ADDQ         $32, R10
	DECQ         R8
	JMP          sqtile

sqdone:
	VMOVUPD Z10, (DX)
	VMOVUPD Z11, (R11)
	VZEROUPPER
	RET
