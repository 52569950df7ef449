package mat

import (
	"encoding/binary"
	"math"
)

// Vector helpers operate on plain []float64 slices; they are the BLAS-1
// layer under the CG solver and the mirror-descent updates.

// Dot returns xᵀy.
//
//firal:hotpath
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x.
//
//firal:hotpath
func Nrm2(x []float64) float64 {
	// Two-pass scaling keeps us safe from overflow for the magnitudes the
	// solvers produce.
	var maxAbs float64
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Axpy performs y += alpha*x.
//
//firal:hotpath
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal performs x *= alpha.
//
//firal:hotpath
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
//
//firal:hotpath
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sum returns Σ x_i.
//
//firal:hotpath
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// MaxIdx returns the index of the maximum element (first on ties) and its
// value. It panics on empty input.
//
//firal:hotpath
func MaxIdx(x []float64) (int, float64) {
	if len(x) == 0 {
		panic("mat: MaxIdx of empty slice")
	}
	best, bv := 0, x[0]
	for i, v := range x[1:] {
		if v > bv {
			best, bv = i+1, v
		}
	}
	return best, bv
}

// WidenFloat32 sets dst[i] to the little-endian float32 at src[4i:],
// widened to float64: exactly, with a signalling NaN quieted as Go's
// float64 conversion quiets it. src must hold 4·len(dst) bytes and may
// start at any byte. On amd64 hosts with AVX the loop of dot_amd64.s
// converts sixteen floats per pass with AVX-512F, eight with AVX.
//
//firal:hotpath
func WidenFloat32(dst []float64, src []byte) {
	if len(src) != 4*len(dst) {
		panic("mat: WidenFloat32 length mismatch")
	}
	if kernel == kernelPortable || len(dst) == 0 {
		widenGo(dst, src)
		return
	}
	widenAVX(len(dst), &dst[0], &src[0], kernel == kernelAVX512)
}

// widenGo is the portable WidenFloat32 loop.
//
//firal:hotpath
func widenGo(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}
