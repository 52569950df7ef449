// Micro-kernels for the blocked GEMM (see packed.go for the panel layout
// and gemm_kernel_amd64.go for when each runs). They compute a tile
// C = Ap·Bp from packed panels — A interleaved 4 values per k, B
// interleaved 8 values per k — the avx512 ones (4×8 and, over two
// adjacent right lane panels, 4×16) into or onto a strided destination,
// the avx one (4×8) into acc. Per k, row r of the tile adds a[r]·b: one
// fused multiply-add, so each element sums its k-terms in ascending order
// from zero with one rounding per term, as the portable kernel's
// math.FMA does, and all levels produce bit-identical results. The fused
// ROUND norms and the dotu tile at the end read the same right panels;
// they run at the avx512 level only.

#include "textflag.h"

// func micro4x8avx512(kc int, ap, bp, dst *float64, ds int, add bool)
//
// Row r of the tile lives in ZMM register Z<r> and goes to dst[r·ds:][:8]:
// stored as it is when add is false (a tile sum starts from +0, so it is
// never −0 and is +0 + sum bit for bit), added onto dst when add is true,
// dst the first operand of the add as in dst += acc.
TEXT ·micro4x8avx512(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ dst+24(FP), DX
	MOVQ ds+32(FP), R8
	SHLQ $3, R8

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	TESTQ CX, CX
	JZ    done512

loop512:
	VMOVUPD      (DI), Z4   // b0 … b7
	VBROADCASTSD (SI), Z5   // a0 ×8
	VFMADD231PD  Z4, Z5, Z0 // acc += a·b
	VBROADCASTSD 8(SI), Z6  // a1 ×8
	VFMADD231PD  Z4, Z6, Z1
	VBROADCASTSD 16(SI), Z7 // a2 ×8
	VFMADD231PD  Z4, Z7, Z2
	VBROADCASTSD 24(SI), Z8 // a3 ×8
	VFMADD231PD  Z4, Z8, Z3
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          loop512

done512:
	LEAQ    (DX)(R8*1), R9  // row 1
	LEAQ    (R9)(R8*1), R10 // row 2
	LEAQ    (R10)(R8*1), R11 // row 3
	MOVBLZX add+40(FP), AX
	TESTQ   AX, AX
	JZ      store512
	VMOVUPD (DX), Z4
	VADDPD  Z0, Z4, Z0
	VMOVUPD (R9), Z5
	VADDPD  Z1, Z5, Z1
	VMOVUPD (R10), Z6
	VADDPD  Z2, Z6, Z2
	VMOVUPD (R11), Z7
	VADDPD  Z3, Z7, Z3

store512:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z3, (R11)
	VZEROUPPER
	RET

// func micro4x16avx512(kc int, ap, bp, dst *float64, ds int, add bool)
//
// micro4x8avx512 over the two adjacent right lane panels at bp (the
// second 8·kc values past the first): row r of the tile lives in Z<r>
// (columns 0–7) and Z<r+4> (columns 8–15) and goes to dst[r·ds:][:16].
// Eight independent accumulators keep both FMA ports busy, where the
// 4×8 tile's four wait on the FMA latency. Each element takes the same
// operations in the same order as in micro4x8avx512.
TEXT ·micro4x16avx512(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ dst+24(FP), DX
	MOVQ ds+32(FP), R8
	SHLQ $3, R8
	MOVQ CX, BX
	SHLQ $6, BX             // 8·kc values: the second lane panel

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	TESTQ CX, CX
	JZ    done16

loop16:
	VMOVUPD      (DI), Z8       // b0 … b7
	VMOVUPD      (DI)(BX*1), Z9 // b8 … b15
	VBROADCASTSD (SI), Z10      // a0 ×8
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z4
	VBROADCASTSD 8(SI), Z11     // a1 ×8
	VFMADD231PD  Z8, Z11, Z1
	VFMADD231PD  Z9, Z11, Z5
	VBROADCASTSD 16(SI), Z12    // a2 ×8
	VFMADD231PD  Z8, Z12, Z2
	VFMADD231PD  Z9, Z12, Z6
	VBROADCASTSD 24(SI), Z13    // a3 ×8
	VFMADD231PD  Z8, Z13, Z3
	VFMADD231PD  Z9, Z13, Z7
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          loop16

done16:
	LEAQ    (DX)(R8*1), R9   // row 1
	LEAQ    (R9)(R8*1), R10  // row 2
	LEAQ    (R10)(R8*1), R11 // row 3
	MOVBLZX add+40(FP), AX
	TESTQ   AX, AX
	JZ      store16
	VMOVUPD (DX), Z8
	VADDPD  Z0, Z8, Z0
	VMOVUPD 64(DX), Z9
	VADDPD  Z4, Z9, Z4
	VMOVUPD (R9), Z10
	VADDPD  Z1, Z10, Z1
	VMOVUPD 64(R9), Z11
	VADDPD  Z5, Z11, Z5
	VMOVUPD (R10), Z12
	VADDPD  Z2, Z12, Z2
	VMOVUPD 64(R10), Z13
	VADDPD  Z6, Z13, Z6
	VMOVUPD (R11), Z14
	VADDPD  Z3, Z14, Z3
	VMOVUPD 64(R11), Z15
	VADDPD  Z7, Z15, Z7

store16:
	VMOVUPD Z0, (DX)
	VMOVUPD Z4, 64(DX)
	VMOVUPD Z1, (R9)
	VMOVUPD Z5, 64(R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z6, 64(R10)
	VMOVUPD Z3, (R11)
	VMOVUPD Z7, 64(R11)
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
	VFMADD231PD  Y8, Y10, Y0 // acc += a·b
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11  // a1 ×4
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12 // a2 ×4
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13 // a3 ×4
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
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

// func sqNorms16AVX512(kc, jt int, w, x, a, a2, qb, qp *float64)
//
// The fused ROUND norms of WeightedSqNorms (packed.go) for the sixteen
// points of two adjacent right lane panels at x (the second 8·kc values
// past the first), writing sixteen sums to each of qb and qp. For each of
// jt left lane panels of w, the 4×16 tile Z0–Z3 (points 0–7) and Z4–Z7
// (points 8–15), row r = one j, is formed as micro4x8avx512 forms it,
// with the left value broadcast, and folded at once, rows in ascending j:
// v2 = y·y, then qb += v2·a_j and qp += v2·a2_j, each one fused
// multiply-add. The sums live in Z16/Z17 (qb) and Z18/Z19 (qp) across all
// panels. Every point takes the operations sqNormsTile gives it.
TEXT ·sqNorms16AVX512(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ jt+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DI
	MOVQ a+32(FP), R9
	MOVQ a2+40(FP), R10
	MOVQ qb+48(FP), DX
	MOVQ qp+56(FP), R11
	MOVQ CX, R13
	SHLQ $6, R13            // 8·kc values: the second lane panel

	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19

sq16tile:
	TESTQ  R8, R8
	JZ     sq16done
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   DI, BX
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     sq16fold

sq16k:
	VMOVUPD      (BX), Z8        // x: points 0–7 at this k
	VMOVUPD      (BX)(R13*1), Z9 // points 8–15
	VBROADCASTSD (SI), Z10       // w_j0 ×8
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z4
	VBROADCASTSD 8(SI), Z11      // w_j1 ×8
	VFMADD231PD  Z8, Z11, Z1
	VFMADD231PD  Z9, Z11, Z5
	VBROADCASTSD 16(SI), Z12     // w_j2 ×8
	VFMADD231PD  Z8, Z12, Z2
	VFMADD231PD  Z9, Z12, Z6
	VBROADCASTSD 24(SI), Z13     // w_j3 ×8
	VFMADD231PD  Z8, Z13, Z3
	VFMADD231PD  Z9, Z13, Z7
	ADDQ         $32, SI
	ADDQ         $64, BX
	DECQ         R12
	JNZ          sq16k

sq16fold:
	VMULPD       Z0, Z0, Z0
	VMULPD       Z4, Z4, Z4
	VBROADCASTSD (R9), Z10
	VFMADD231PD  Z10, Z0, Z16
	VFMADD231PD  Z10, Z4, Z17
	VBROADCASTSD (R10), Z11
	VFMADD231PD  Z11, Z0, Z18
	VFMADD231PD  Z11, Z4, Z19
	VMULPD       Z1, Z1, Z1
	VMULPD       Z5, Z5, Z5
	VBROADCASTSD 8(R9), Z10
	VFMADD231PD  Z10, Z1, Z16
	VFMADD231PD  Z10, Z5, Z17
	VBROADCASTSD 8(R10), Z11
	VFMADD231PD  Z11, Z1, Z18
	VFMADD231PD  Z11, Z5, Z19
	VMULPD       Z2, Z2, Z2
	VMULPD       Z6, Z6, Z6
	VBROADCASTSD 16(R9), Z10
	VFMADD231PD  Z10, Z2, Z16
	VFMADD231PD  Z10, Z6, Z17
	VBROADCASTSD 16(R10), Z11
	VFMADD231PD  Z11, Z2, Z18
	VFMADD231PD  Z11, Z6, Z19
	VMULPD       Z3, Z3, Z3
	VMULPD       Z7, Z7, Z7
	VBROADCASTSD 24(R9), Z10
	VFMADD231PD  Z10, Z3, Z16
	VFMADD231PD  Z10, Z7, Z17
	VBROADCASTSD 24(R10), Z11
	VFMADD231PD  Z11, Z3, Z18
	VFMADD231PD  Z11, Z7, Z19
	ADDQ         $32, R9
	ADDQ         $32, R10
	DECQ         R8
	JMP          sq16tile

sq16done:
	VMOVUPD Z16, (DX)
	VMOVUPD Z17, 64(DX)
	VMOVUPD Z18, (R11)
	VMOVUPD Z19, 64(R11)
	VZEROUPPER
	RET

// func dotuTileAVX512(kc int, x *float64, xs int, bp, lanes, out *float64, os, t0, mask, rows int, first, last bool)
//
// The dotu lanes of four rows x_r (kc values each, row r at x + r·xs,
// rows past rows repeating the last one) against the eight rows of the
// right lane panel bp over kc inner steps. Z<4r+l> holds lane l of row r
// for the eight panel rows: it adds x_r[t]·b[t] over t ≡ l (mod 4), the
// kc%4 tail joins lane 0. Each step is a broadcast of x_r[t] and one
// fused multiply-add onto the lane with x first, dotuGo's order element
// by element. With first set the lanes start from +0, else from lanes
// (row r's lane l at lanes[(4r+l)·8:]). With last set row r < rows gets
// its sums (l0 + l1) + (l2 + l3) in the panel rows set in mask, panel
// row t at out[r·os + t − t0] (a masked store, so the destination holds
// only the columns in mask); otherwise the lanes go back to lanes for
// the next k-panel.
TEXT ·dotuTileAVX512(SB), NOSPLIT, $0-82
	MOVQ    kc+0(FP), CX
	MOVQ    x+8(FP), R8
	MOVQ    xs+16(FP), AX
	SHLQ    $3, AX
	MOVQ    rows+72(FP), R12
	LEAQ    (R8)(AX*1), R9   // x1, or x0 when rows ≤ 1
	CMPQ    R12, $1
	CMOVQLE R8, R9
	LEAQ    (R9)(AX*1), R10  // x2, or x1 when rows ≤ 2
	CMPQ    R12, $2
	CMOVQLE R9, R10
	LEAQ    (R10)(AX*1), R11 // x3, or x2 when rows ≤ 3
	CMPQ    R12, $3
	CMOVQLE R10, R11
	MOVQ    bp+24(FP), SI
	MOVQ    lanes+32(FP), DI
	MOVBLZX first+80(FP), AX
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
	VFMADD231PD  Z16, Z20, Z0
	VFMADD231PD  Z17, Z21, Z1
	VFMADD231PD  Z18, Z22, Z2
	VFMADD231PD  Z19, Z23, Z3

	VBROADCASTSD (R9), Z20
	VBROADCASTSD 8(R9), Z21
	VBROADCASTSD 16(R9), Z22
	VBROADCASTSD 24(R9), Z23
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z17, Z21, Z5
	VFMADD231PD  Z18, Z22, Z6
	VFMADD231PD  Z19, Z23, Z7

	VBROADCASTSD (R10), Z20
	VBROADCASTSD 8(R10), Z21
	VBROADCASTSD 16(R10), Z22
	VBROADCASTSD 24(R10), Z23
	VFMADD231PD  Z16, Z20, Z8
	VFMADD231PD  Z17, Z21, Z9
	VFMADD231PD  Z18, Z22, Z10
	VFMADD231PD  Z19, Z23, Z11

	VBROADCASTSD (R11), Z20
	VBROADCASTSD 8(R11), Z21
	VBROADCASTSD 16(R11), Z22
	VBROADCASTSD 24(R11), Z23
	VFMADD231PD  Z16, Z20, Z12
	VFMADD231PD  Z17, Z21, Z13
	VFMADD231PD  Z18, Z22, Z14
	VFMADD231PD  Z19, Z23, Z15

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
	VFMADD231PD  Z16, Z20, Z0
	VBROADCASTSD (R9), Z21
	VFMADD231PD  Z16, Z21, Z4
	VBROADCASTSD (R10), Z22
	VFMADD231PD  Z16, Z22, Z8
	VBROADCASTSD (R11), Z23
	VFMADD231PD  Z16, Z23, Z12
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         $64, SI
	DECQ         CX
	JNZ          ttailloop

tout:
	MOVBLZX last+81(FP), AX
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
	MOVQ    out+40(FP), DX
	MOVQ    os+48(FP), R13
	SHLQ    $3, R13
	MOVQ    t0+56(FP), AX
	SHLQ    $3, AX
	SUBQ    AX, DX         // panel row 0 of tile row 0
	MOVQ    mask+64(FP), AX
	KMOVW   AX, K1
	MOVQ    rows+72(FP), R12
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
