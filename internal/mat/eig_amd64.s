// Row kernels of the symmetric eigensolver (eig.go): tql's plane
// rotation, tred2's symmetric rank-2 update and its back-accumulation's
// rank-1 update. Each takes wide = true at the avx512 level, where a
// pass of eight columns per ZMM register runs first; then come passes
// of four columns per YMM register and of single columns. Every element
// gets the multiplies and the add or subtract of its Go loop, in that
// loop's order, as separate VMULPD/VADDPD/VSUBPD (never FMA), so the
// kernels are bit-identical to rotGo, symRank2Go and rank1SubGo.

#include "textflag.h"

// func rotAVX(n int, x, y *float64, c, s float64, wide bool)
//
// f = y[k]; y[k] = s·x[k] + c·f; x[k] = c·x[k] − s·f.
TEXT ·rotAVX(SB), NOSPLIT, $0-41
	MOVQ         n+0(FP), CX
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	VBROADCASTSD c+24(FP), Y0
	VBROADCASTSD s+32(FP), Y1
	MOVBQZX      wide+40(FP), AX
	TESTQ        AX, AX
	JZ           rquad
	VBROADCASTSD c+24(FP), Z0
	VBROADCASTSD s+32(FP), Z1

rzmm:
	CMPQ    CX, $8
	JLT     rquad
	VMOVUPD (SI), Z2
	VMOVUPD (DI), Z3
	VMULPD  Z2, Z1, Z4 // s·x
	VMULPD  Z3, Z0, Z5 // c·f
	VADDPD  Z5, Z4, Z4
	VMULPD  Z2, Z0, Z6 // c·x
	VMULPD  Z3, Z1, Z7 // s·f
	VSUBPD  Z7, Z6, Z6
	VMOVUPD Z4, (DI)
	VMOVUPD Z6, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     rzmm

rquad:
	CMPQ    CX, $4
	JLT     rone
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y2, Y1, Y4
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y0, Y6
	VMULPD  Y3, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VMOVUPD Y4, (DI)
	VMOVUPD Y6, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     rquad

rone:
	TESTQ  CX, CX
	JZ     rdone
	VMOVSD (SI), X2
	VMOVSD (DI), X3
	VMULSD X2, X1, X4
	VMULSD X3, X0, X5
	VADDSD X5, X4, X4
	VMULSD X2, X0, X6
	VMULSD X3, X1, X7
	VSUBSD X7, X6, X6
	VMOVSD X4, (DI)
	VMOVSD X6, (SI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    rone

rdone:
	VZEROUPPER
	RET

// func symRank2AVX(n int, a *float64, as int, u, p *float64, wide bool)
//
// a[j·as + k] −= u[j]·p[k] + p[j]·u[k] for j, k < n.
TEXT ·symRank2AVX(SB), NOSPLIT, $0-41
	MOVQ    n+0(FP), R8
	MOVQ    a+8(FP), DI
	MOVQ    as+16(FP), R9
	SHLQ    $3, R9
	MOVQ    u+24(FP), SI
	MOVQ    p+32(FP), DX
	MOVBQZX wide+40(FP), R10
	XORQ    R11, R11         // j

srow:
	CMPQ         R11, R8
	JGE          sdone
	VBROADCASTSD (SI)(R11*8), Y0 // u_j
	VBROADCASTSD (DX)(R11*8), Y1 // p_j
	XORQ         AX, AX          // k
	TESTQ        R10, R10
	JZ           squad
	VBROADCASTSD (SI)(R11*8), Z0
	VBROADCASTSD (DX)(R11*8), Z1

szmm:
	LEAQ    8(AX), BX
	CMPQ    BX, R8
	JGT     squad
	VMULPD  (DX)(AX*8), Z0, Z2 // u_j·p_k
	VMULPD  (SI)(AX*8), Z1, Z3 // p_j·u_k
	VADDPD  Z3, Z2, Z2
	VMOVUPD (DI)(AX*8), Z4
	VSUBPD  Z2, Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     szmm

squad:
	LEAQ    4(AX), BX
	CMPQ    BX, R8
	JGT     sone
	VMULPD  (DX)(AX*8), Y0, Y2
	VMULPD  (SI)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     squad

sone:
	CMPQ   AX, R8
	JGE    snext
	VMULSD (DX)(AX*8), X0, X2
	VMULSD (SI)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    sone

snext:
	ADDQ R9, DI
	INCQ R11
	JMP  srow

sdone:
	VZEROUPPER
	RET

// func rank1SubAVX(n int, a *float64, as, rows int, c *float64, cs int, x *float64, wide bool)
//
// a[k·as + j] = a[k·as + j] − x[j]·c[k·cs] for k < rows, j < n.
TEXT ·rank1SubAVX(SB), NOSPLIT, $0-57
	MOVQ    n+0(FP), R8
	MOVQ    a+8(FP), DI
	MOVQ    as+16(FP), R9
	SHLQ    $3, R9
	MOVQ    rows+24(FP), R12
	MOVQ    c+32(FP), SI
	MOVQ    cs+40(FP), R13
	SHLQ    $3, R13
	MOVQ    x+48(FP), DX
	MOVBQZX wide+56(FP), R10

krow:
	TESTQ        R12, R12
	JZ           kdone
	VBROADCASTSD (SI), Y0 // c_k
	XORQ         AX, AX   // j
	TESTQ        R10, R10
	JZ           kquad
	VBROADCASTSD (SI), Z0

kzmm:
	LEAQ    8(AX), BX
	CMPQ    BX, R8
	JGT     kquad
	VMULPD  (DX)(AX*8), Z0, Z2 // x_j·c_k
	VMOVUPD (DI)(AX*8), Z4
	VSUBPD  Z2, Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     kzmm

kquad:
	LEAQ    4(AX), BX
	CMPQ    BX, R8
	JGT     kone
	VMULPD  (DX)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     kquad

kone:
	CMPQ   AX, R8
	JGE    knext
	VMULSD (DX)(AX*8), X0, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    kone

knext:
	ADDQ R9, DI
	ADDQ R13, SI
	DECQ R12
	JMP  krow

kdone:
	VZEROUPPER
	RET
