// Micro-kernels for the blocked GEMM (see packed.go for the panel layout
// and gemm_kernel_amd64.go for when each runs). Both compute a 4×8 tile
// C = Ap·Bp from packed panels — A interleaved 4 values per k, B
// interleaved 8 values per k — into acc. Per k, row r of the tile adds
// a[r]·b[0:8]: a multiply then an add (never FMA), so each element sums its
// k-terms in ascending order from zero with the same roundings as the
// portable kernel, and all levels produce bit-identical results. The
// dotu tile at the end reads the same right panels for the unblocked
// order (MulPackedRightInOrder); it runs at the avx512 level only.

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

// func dotuTileAVX512(kc int, x0, x1, x2, x3, bp, lanes, out *float64, os, t0, mask, rows int, first, last bool)
//
// The dotu lanes of four rows x_r (x0…x3, kc values each) against the
// eight rows of the right lane panel bp over kc inner steps. Z<4r+l>
// holds lane l of row r for the eight panel rows: it adds x_r[t]·b[t]
// over t ≡ l (mod 4), the kc%4 tail joins lane 0. Each step is a
// broadcast of x_r[t], a VMULPD with x first and a VADDPD onto the lane,
// dotuGo's order element by element. With first set the lanes start
// from +0, else from lanes (row r's lane l at lanes[(4r+l)·8:]). With
// last set row r < rows gets its sums (l0 + l1) + (l2 + l3) in the
// panel rows set in mask, panel row t at out[r·os + t − t0] (a masked
// store, so the destination holds only the columns in mask); otherwise
// the lanes go back to lanes for the next k-panel.
TEXT ·dotuTileAVX512(SB), NOSPLIT, $0-98
	MOVQ    kc+0(FP), CX
	MOVQ    x0+8(FP), R8
	MOVQ    x1+16(FP), R9
	MOVQ    x2+24(FP), R10
	MOVQ    x3+32(FP), R11
	MOVQ    bp+40(FP), SI
	MOVQ    lanes+48(FP), DI
	MOVBLZX first+96(FP), AX
	TESTQ   AX, AX
	JNZ     tzero
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11
	VMOVUPD 768(DI), Z12
	VMOVUPD 832(DI), Z13
	VMOVUPD 896(DI), Z14
	VMOVUPD 960(DI), Z15
	JMP     tbody

tzero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

tbody:
	MOVQ  CX, R12
	SHRQ  $2, R12 // four-step groups
	ANDQ  $3, CX  // tail steps
	TESTQ R12, R12
	JZ    ttail

tloop:
	VMOVUPD      (SI), Z16   // b[t]
	VMOVUPD      64(SI), Z17 // b[t+1]
	VMOVUPD      128(SI), Z18
	VMOVUPD      192(SI), Z19

	VBROADCASTSD (R8), Z20
	VBROADCASTSD 8(R8), Z21
	VBROADCASTSD 16(R8), Z22
	VBROADCASTSD 24(R8), Z23
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z0, Z0
	VMULPD       Z17, Z21, Z25
	VADDPD       Z25, Z1, Z1
	VMULPD       Z18, Z22, Z26
	VADDPD       Z26, Z2, Z2
	VMULPD       Z19, Z23, Z27
	VADDPD       Z27, Z3, Z3

	VBROADCASTSD (R9), Z20
	VBROADCASTSD 8(R9), Z21
	VBROADCASTSD 16(R9), Z22
	VBROADCASTSD 24(R9), Z23
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z4, Z4
	VMULPD       Z17, Z21, Z25
	VADDPD       Z25, Z5, Z5
	VMULPD       Z18, Z22, Z26
	VADDPD       Z26, Z6, Z6
	VMULPD       Z19, Z23, Z27
	VADDPD       Z27, Z7, Z7

	VBROADCASTSD (R10), Z20
	VBROADCASTSD 8(R10), Z21
	VBROADCASTSD 16(R10), Z22
	VBROADCASTSD 24(R10), Z23
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z8, Z8
	VMULPD       Z17, Z21, Z25
	VADDPD       Z25, Z9, Z9
	VMULPD       Z18, Z22, Z26
	VADDPD       Z26, Z10, Z10
	VMULPD       Z19, Z23, Z27
	VADDPD       Z27, Z11, Z11

	VBROADCASTSD (R11), Z20
	VBROADCASTSD 8(R11), Z21
	VBROADCASTSD 16(R11), Z22
	VBROADCASTSD 24(R11), Z23
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z12, Z12
	VMULPD       Z17, Z21, Z25
	VADDPD       Z25, Z13, Z13
	VMULPD       Z18, Z22, Z26
	VADDPD       Z26, Z14, Z14
	VMULPD       Z19, Z23, Z27
	VADDPD       Z27, Z15, Z15

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $256, SI
	DECQ R12
	JNZ  tloop

ttail:
	TESTQ CX, CX
	JZ    tout

ttailloop:
	VMOVUPD      (SI), Z16
	VBROADCASTSD (R8), Z20
	VMULPD       Z16, Z20, Z24
	VADDPD       Z24, Z0, Z0
	VBROADCASTSD (R9), Z21
	VMULPD       Z16, Z21, Z25
	VADDPD       Z25, Z4, Z4
	VBROADCASTSD (R10), Z22
	VMULPD       Z16, Z22, Z26
	VADDPD       Z26, Z8, Z8
	VBROADCASTSD (R11), Z23
	VMULPD       Z16, Z23, Z27
	VADDPD       Z27, Z12, Z12
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         $64, SI
	DECQ         CX
	JNZ          ttailloop

tout:
	MOVBLZX last+97(FP), AX
	TESTQ   AX, AX
	JNZ     tfinish
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)
	VZEROUPPER
	RET

tfinish:
	MOVQ    out+56(FP), DX
	MOVQ    os+64(FP), R13
	SHLQ    $3, R13
	MOVQ    t0+72(FP), AX
	SHLQ    $3, AX
	SUBQ    AX, DX         // panel row 0 of tile row 0
	MOVQ    mask+80(FP), AX
	KMOVW   AX, K1
	MOVQ    rows+88(FP), R12
	VADDPD  Z1, Z0, Z0     // l0 + l1
	VADDPD  Z3, Z2, Z2     // l2 + l3
	VADDPD  Z2, Z0, Z0
	VMOVUPD Z0, K1, (DX)
	DECQ    R12
	JZ      tdone
	ADDQ    R13, DX
	VADDPD  Z5, Z4, Z4
	VADDPD  Z7, Z6, Z6
	VADDPD  Z6, Z4, Z4
	VMOVUPD Z4, K1, (DX)
	DECQ    R12
	JZ      tdone
	ADDQ    R13, DX
	VADDPD  Z9, Z8, Z8
	VADDPD  Z11, Z10, Z10
	VADDPD  Z10, Z8, Z8
	VMOVUPD Z8, K1, (DX)
	DECQ    R12
	JZ      tdone
	ADDQ    R13, DX
	VADDPD  Z13, Z12, Z12
	VADDPD  Z15, Z14, Z14
	VADDPD  Z14, Z12, Z12
	VMOVUPD Z12, K1, (DX)

tdone:
	VZEROUPPER
	RET
