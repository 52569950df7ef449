package mat

import "math"

// fmaHW reports whether the CPU has FMA and the OS saves the YMM state
// (fma_386.s).
var fmaHW = hasFMA386()

// fma is math.FMA, x·y + z rounded once. On 386 the compiler has no FMA
// instruction for math.FMA and runs its software form, about a hundred
// times slower than a multiply and an add, so where the CPU has FMA this
// runs VFMADD231SD instead: the same bits, as IEEE 754 defines the fused
// operation.
func fma(x, y, z float64) float64 {
	if fmaHW {
		return fmaSD(x, y, z)
	}
	return math.FMA(x, y, z)
}

// fmaSD returns x·y + z rounded once (VFMADD231SD).
//
//go:noescape
func fmaSD(x, y, z float64) float64

// hasFMA386 reports whether the CPU has AVX and FMA and the OS saves the
// YMM state.
func hasFMA386() bool
