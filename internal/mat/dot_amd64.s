// AVX inner loops for the row kernels: the four-lane dot product of dotu,
// the row-ordered multi-row axpy of the aᵀ·b reference kernel (with an
// AVX-512F pass over runs of thirty-two columns), the rank-4 row update
// of the weighted Gram (on YMM, and on ZMM at AVX-512F) and the float32
// widen of WidenFloat32. They run only at the kernel level that supports
// their registers (gemm_kernel_amd64.go). Each multiply-then-add of a
// term is one fused multiply-add (VFMADD231PD/SD), in the portable loop's
// order and with its operands in math.FMA's places, so each kernel is
// bit-identical to its fallback (dotuGo, accumRowsGo, the rank-4 loop of
// WeightedGramAddLower, widenGo).

#include "textflag.h"

// func dotsLanesAVX(n int, x, y *float64, ys, ny int, out *float64)
//
// out[j] = dotu(x[:n], y[j·ys : j·ys+n]) for j < ny. One YMM register
// holds the four lanes of one dot: lane l sums x[i]·y[i] over i ≡ l
// (mod 4). After VEXTRACTF128 splits off lanes 2–3, the n%4 tail joins
// lane 0 and the result is (lane0 + lane1) + (lane2 + lane3). Four rows
// of y run at once so the four accumulator chains overlap.
TEXT ·dotsLanesAVX(SB), NOSPLIT, $0-48
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
	CMPQ   R9, $4
	JLT    one
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     quadtail

quadloop:
	VMOVUPD (AX), Y8
	VFMADD231PD (BX), Y8, Y0
	VFMADD231PD (BX)(R8*1), Y8, Y1
	VFMADD231PD (BX)(R8*2), Y8, Y2
	VFMADD231PD (BX)(R13*1), Y8, Y3
	ADDQ    $32, AX
	ADDQ    $32, BX
	DECQ    R11
	JNZ     quadloop

quadtail:
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	MOVQ         CX, R11
	TESTQ        R11, R11
	JZ           quadsum

quadtailloop:
	VMOVSD (AX), X8
	VFMADD231SD (BX), X8, X0
	VFMADD231SD (BX)(R8*1), X8, X1
	VFMADD231SD (BX)(R8*2), X8, X2
	VFMADD231SD (BX)(R13*1), X8, X3
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   R11
	JNZ    quadtailloop

quadsum:
	VHADDPD X4, X0, X0 // lane0+lane1, lane2+lane3
	VHADDPD X0, X0, X0
	VMOVSD  X0, (DX)
	VHADDPD X5, X1, X1
	VHADDPD X1, X1, X1
	VMOVSD  X1, 8(DX)
	VHADDPD X6, X2, X2
	VHADDPD X2, X2, X2
	VMOVSD  X2, 16(DX)
	VHADDPD X7, X3, X3
	VHADDPD X3, X3, X3
	VMOVSD  X3, 24(DX)
	LEAQ    (DI)(R8*4), DI
	ADDQ    $32, DX
	SUBQ    $4, R9
	JMP     quad

one:
	TESTQ  R9, R9
	JZ     done
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     onetail

oneloop:
	VMOVUPD (AX), Y8
	VFMADD231PD (BX), Y8, Y0
	ADDQ    $32, AX
	ADDQ    $32, BX
	DECQ    R11
	JNZ     oneloop

onetail:
	VEXTRACTF128 $1, Y0, X4
	MOVQ         CX, R11
	TESTQ        R11, R11
	JZ           onesum

onetailloop:
	VMOVSD (AX), X8
	VFMADD231SD (BX), X8, X0
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   R11
	JNZ    onetailloop

onesum:
	VHADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD  X0, (DX)
	ADDQ    R8, DI
	ADDQ    $8, DX
	DECQ    R9
	JMP     one

done:
	VZEROUPPER
	RET

// func accumRowsAVX(n int, y, c *float64, cs int, x *float64, xs, rows int)
//
// y[t] += c[i·cs]·x[i·xs + t] for t < n, rows i ascending, skipping a
// coefficient that compares equal to zero (a NaN is not skipped).
// Sixteen columns at a time stay in four YMM registers across the whole
// row loop; four-column groups and single columns cover the rest.
TEXT ·accumRowsAVX(SB), NOSPLIT, $0-56
	MOVQ   n+0(FP), CX
	MOVQ   y+8(FP), DI
	MOVQ   c+16(FP), SI
	MOVQ   cs+24(FP), R8
	SHLQ   $3, R8
	MOVQ   x+32(FP), DX
	MOVQ   xs+40(FP), R9
	SHLQ   $3, R9
	MOVQ   rows+48(FP), R10
	VXORPD X13, X13, X13

wide:
	CMPQ    CX, $16
	JLT     quad
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R10, R11
	TESTQ   R11, R11
	JZ      widestore

wideloop:
	VMOVSD   (AX), X12
	VUCOMISD X13, X12
	JNE      widedo
	JPS      widedo
	JMP      widenext

widedo:
	VBROADCASTSD (AX), Y12
	VFMADD231PD  (BX), Y12, Y0
	VFMADD231PD  32(BX), Y12, Y1
	VFMADD231PD  64(BX), Y12, Y2
	VFMADD231PD  96(BX), Y12, Y3

widenext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  wideloop

widestore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     wide

quad:
	CMPQ    CX, $4
	JLT     single
	VMOVUPD (DI), Y0
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R10, R11
	TESTQ   R11, R11
	JZ      quadstore

quadloop:
	VMOVSD   (AX), X12
	VUCOMISD X13, X12
	JNE      quaddo
	JPS      quaddo
	JMP      quadnext

quaddo:
	VBROADCASTSD (AX), Y12
	VFMADD231PD  (BX), Y12, Y0

quadnext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  quadloop

quadstore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     quad

single:
	TESTQ  CX, CX
	JZ     accdone
	VMOVSD (DI), X0
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     singlestore

singleloop:
	VMOVSD   (AX), X12
	VUCOMISD X13, X12
	JNE      singledo
	JPS      singledo
	JMP      singlenext

singledo:
	VFMADD231SD (BX), X12, X0

singlenext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  singleloop

singlestore:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    single

accdone:
	VZEROUPPER
	RET

// func accumRowsAVX512(n int, y, c *float64, cs int, x *float64, xs, rows int)
//
// accumRowsAVX for n a multiple of 32: thirty-two columns at a time stay
// in four ZMM registers across the whole row loop, with the same
// zero-coefficient test and the same fused multiply-add per element.
TEXT ·accumRowsAVX512(SB), NOSPLIT, $0-56
	MOVQ   n+0(FP), CX
	MOVQ   y+8(FP), DI
	MOVQ   c+16(FP), SI
	MOVQ   cs+24(FP), R8
	SHLQ   $3, R8
	MOVQ   x+32(FP), DX
	MOVQ   xs+40(FP), R9
	SHLQ   $3, R9
	MOVQ   rows+48(FP), R10
	VXORPD X13, X13, X13

zwide:
	CMPQ    CX, $32
	JLT     zdone
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R10, R11
	TESTQ   R11, R11
	JZ      zstore

zloop:
	VMOVSD   (AX), X12
	VUCOMISD X13, X12
	JNE      zdo
	JPS      zdo
	JMP      znext

zdo:
	VBROADCASTSD (AX), Z12
	VFMADD231PD  (BX), Z12, Z0
	VFMADD231PD  64(BX), Z12, Z1
	VFMADD231PD  128(BX), Z12, Z2
	VFMADD231PD  192(BX), Z12, Z3

znext:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R11
	JNZ  zloop

zstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     zwide

zdone:
	VZEROUPPER
	RET

// func gramRank4AVX(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)
//
// For the four rows x_k = x[k·xs:][:d] and r < d, with
// v_k = w_k·x_k[r]: dst[r·ds + c] += fma(v3, x3[c], fma(v2, x2[c],
// fma(v1, x1[c], v0·x0[c]))) for c ≤ r — the lower triangle of
// Σ_k w_k x_k x_kᵀ in WeightedGramAddLower's order, one rounding per
// term. Four columns per YMM register, single columns for the rest.
TEXT ·gramRank4AVX(SB), NOSPLIT, $0-72
	XORQ         R13, R13        // r
	MOVQ         d+0(FP), CX
	MOVQ         dst+8(FP), DI
	MOVQ         ds+16(FP), R8
	SHLQ         $3, R8
	MOVQ         x+24(FP), SI
	MOVQ         xs+32(FP), R9
	SHLQ         $3, R9
	LEAQ         (SI)(R9*1), R10 // x1
	LEAQ         (R10)(R9*1), R11 // x2
	LEAQ         (R11)(R9*1), R12 // x3
	VBROADCASTSD w0+40(FP), Y8
	VBROADCASTSD w1+48(FP), Y9
	VBROADCASTSD w2+56(FP), Y10
	VBROADCASTSD w3+64(FP), Y11

row:
	CMPQ         R13, CX
	JGE          gramdone
	VBROADCASTSD (SI)(R13*8), Y4
	VMULPD       Y4, Y8, Y4      // v0
	VBROADCASTSD (R10)(R13*8), Y5
	VMULPD       Y5, Y9, Y5      // v1
	VBROADCASTSD (R11)(R13*8), Y6
	VMULPD       Y6, Y10, Y6     // v2
	VBROADCASTSD (R12)(R13*8), Y7
	VMULPD       Y7, Y11, Y7     // v3
	LEAQ         1(R13), DX      // columns in this row
	XORQ         AX, AX          // c

cols:
	LEAQ        4(AX), BX
	CMPQ        BX, DX
	JGT         tail
	VMULPD      (SI)(AX*8), Y4, Y12
	VFMADD231PD (R10)(AX*8), Y5, Y12
	VFMADD231PD (R11)(AX*8), Y6, Y12
	VFMADD231PD (R12)(AX*8), Y7, Y12
	VADDPD      (DI)(AX*8), Y12, Y12
	VMOVUPD     Y12, (DI)(AX*8)
	MOVQ        BX, AX
	JMP         cols

tail:
	CMPQ        AX, DX
	JGE         nextrow
	VMULSD      (SI)(AX*8), X4, X12
	VFMADD231SD (R10)(AX*8), X5, X12
	VFMADD231SD (R11)(AX*8), X6, X12
	VFMADD231SD (R12)(AX*8), X7, X12
	VADDSD      (DI)(AX*8), X12, X12
	VMOVSD      X12, (DI)(AX*8)
	INCQ        AX
	JMP         tail

nextrow:
	ADDQ R8, DI
	INCQ R13
	JMP  row

gramdone:
	VZEROUPPER
	RET

// func gramRank4AVX512(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)
//
// gramRank4AVX on ZMM registers: eight columns per instruction, and the
// last c ≤ r of a row that do not fill eight run under the k-mask
// (1 << rem) − 1, whose masked loads and stores leave the columns past
// the row untouched and cannot fault. The per-element operations and
// their order are gramRank4AVX's.
TEXT ·gramRank4AVX512(SB), NOSPLIT, $0-72
	XORQ         R13, R13        // r
	MOVQ         dst+8(FP), DI
	MOVQ         ds+16(FP), R8
	SHLQ         $3, R8
	MOVQ         x+24(FP), SI
	MOVQ         xs+32(FP), R9
	SHLQ         $3, R9
	LEAQ         (SI)(R9*1), R10 // x1
	LEAQ         (R10)(R9*1), R11 // x2
	LEAQ         (R11)(R9*1), R12 // x3
	MOVQ         d+0(FP), R9
	VBROADCASTSD w0+40(FP), Z8
	VBROADCASTSD w1+48(FP), Z9
	VBROADCASTSD w2+56(FP), Z10
	VBROADCASTSD w3+64(FP), Z11

zrow:
	CMPQ         R13, R9
	JGE          zgramdone
	VBROADCASTSD (SI)(R13*8), Z4
	VMULPD       Z4, Z8, Z4      // v0
	VBROADCASTSD (R10)(R13*8), Z5
	VMULPD       Z5, Z9, Z5      // v1
	VBROADCASTSD (R11)(R13*8), Z6
	VMULPD       Z6, Z10, Z6     // v2
	VBROADCASTSD (R12)(R13*8), Z7
	VMULPD       Z7, Z11, Z7     // v3
	LEAQ         1(R13), DX      // columns in this row
	XORQ         AX, AX          // c

zcols:
	LEAQ        8(AX), BX
	CMPQ        BX, DX
	JGT         ztail
	VMULPD      (SI)(AX*8), Z4, Z12
	VFMADD231PD (R10)(AX*8), Z5, Z12
	VFMADD231PD (R11)(AX*8), Z6, Z12
	VFMADD231PD (R12)(AX*8), Z7, Z12
	VADDPD      (DI)(AX*8), Z12, Z12
	VMOVUPD     Z12, (DI)(AX*8)
	MOVQ        BX, AX
	JMP         zcols

ztail:
	MOVQ          DX, CX
	SUBQ          AX, CX          // rem = columns left, 0…7
	JZ            znextrow
	MOVL          $1, BX
	SHLL          CX, BX
	DECL          BX
	KMOVW         BX, K1
	VMULPD.Z      (SI)(AX*8), Z4, K1, Z12
	VFMADD231PD.Z (R10)(AX*8), Z5, K1, Z12
	VFMADD231PD.Z (R11)(AX*8), Z6, K1, Z12
	VFMADD231PD.Z (R12)(AX*8), Z7, K1, Z12
	VADDPD.Z      (DI)(AX*8), Z12, K1, Z12
	VMOVUPD       Z12, K1, (DI)(AX*8)

znextrow:
	ADDQ R8, DI
	INCQ R13
	JMP  zrow

zgramdone:
	VZEROUPPER
	RET

// func widenAVX(n int, dst *float64, src *byte, wide bool)
//
// dst[i] = float64 of the float32 at src[4i:] for i < n. VCVTPS2PD
// widens exactly and quiets a signalling NaN as CVTSS2SD, the Go
// conversion, does. With wide set, sixteen floats per pass in two ZMM
// registers; then eight per pass in two YMM registers, then one.
TEXT ·widenAVX(SB), NOSPLIT, $0-25
	MOVQ    n+0(FP), CX
	MOVQ    dst+8(FP), DI
	MOVQ    src+16(FP), SI
	MOVBLZX wide+24(FP), AX
	TESTQ   AX, AX
	JZ      wyloop

wzloop:
	CMPQ      CX, $16
	JLT       wyloop
	VCVTPS2PD (SI), Z0
	VCVTPS2PD 32(SI), Z1
	VMOVUPD   Z0, (DI)
	VMOVUPD   Z1, 64(DI)
	ADDQ      $64, SI
	ADDQ      $128, DI
	SUBQ      $16, CX
	JMP       wzloop

wyloop:
	CMPQ      CX, $8
	JLT       wone
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       wyloop

wone:
	TESTQ     CX, CX
	JZ        wdone
	VCVTSS2SD (SI), X0, X0
	VMOVSD    X0, (DI)
	ADDQ      $4, SI
	ADDQ      $8, DI
	DECQ      CX
	JMP       wone

wdone:
	VZEROUPPER
	RET
