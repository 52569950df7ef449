// AVX micro-kernel for the blocked GEMM, run only when hasAVX reports the
// CPU and OS support 256-bit registers (see gemm_kernel_amd64.go). The
// kernel computes a 4×4 tile C = Ap·Bp from packed panels (A interleaved
// 4 values per k, B interleaved 4 values per k) into acc. Row r of the
// tile lives in one YMM register: per k it adds a[r]·b[0:4], a multiply
// then an add (never FMA), so each element sums its k-terms in ascending
// order with the same roundings as the scalar kernel — both produce
// bit-identical results.

#include "textflag.h"

// func micro4x4avx(kc int, ap, bp, acc *float64)
TEXT ·micro4x4avx(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD      (DI), Y4   // b0 b1 b2 b3
	VBROADCASTSD (SI), Y5   // a0 ×4
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD 8(SI), Y6  // a1 ×4
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD 16(SI), Y7 // a2 ×4
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD 24(SI), Y8 // a3 ×4
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET
