package mat

// Kernel selection on amd64. The inner loops run at one of three levels,
// picked once at start-up and never changed:
//
//   - kernelAVX512: the CPU has AVX-512F (CPUID.7:EBX bit 16) and the OS
//     saves the opmask and ZMM state, i.e. XCR0 has bits 1, 2, 5, 6 and 7
//     (mask 0xE6; a CPU flag alone is not enough, because an OS that does
//     not save the upper ZMM halves would corrupt them across context
//     switches). The GEMM micro-kernel keeps one 4×8 tile row per ZMM
//     register, the dotu-order tile of MulPackedRightInOrder keeps the
//     four dotu lanes of four rows in sixteen, AccumRows runs thirty-two
//     columns per pass before its AVX passes and WidenFloat32 sixteen
//     floats; the other loops run their AVX code.
//   - kernelAVX: the CPU has AVX and the OS saves the YMM state (XCR0 bits
//     1 and 2). The micro-kernel keeps a tile row in two YMM registers.
//   - kernelPortable: every other host runs the Go loops.
//
// The micro-kernels read the panel layout that packed.go owns: four left
// rows and eight right columns (gemmNR) interleaved by k, so one 64-byte
// load fetches the eight right values of a k step and a ZMM row, or two
// YMM halves, covers the whole tile row.
//
// No kernel uses a fused multiply-add. FMA rounds a·b + c once where
// VMULPD then VADDPD round twice, so it would give different bits from
// the portable loops and would make every product, ROUND score and
// selection depend on the host. Every kernel instead issues VMULPD then
// VADDPD in the portable loop's per-element order; the tests compare each
// level with the portable one bit for bit.

// kernel is the level this process runs.
var kernel = detectKernel()

func detectKernel() kernelLevel {
	switch {
	case hasAVX512():
		return kernelAVX512
	case hasAVX():
		return kernelAVX
	}
	return kernelPortable
}

// hasAVX reports whether the CPU supports AVX and the OS has enabled the
// YMM state (cpu_amd64.s).
func hasAVX() bool

// hasAVX512 reports whether the CPU supports AVX and AVX-512F and the OS
// has enabled the opmask and ZMM state (cpu_amd64.s).
func hasAVX512() bool

// micro4x8avx512 computes the 4×8 tile product of packed panels ap and bp
// over kc steps and writes tile row r to dst[r·ds:][:8]: it overwrites
// the row, or adds the tile onto it (dst += acc) when add is set.
//
//go:noescape
func micro4x8avx512(kc int, ap, bp, dst *float64, ds int, add bool)

// micro4x8avx computes the same tile on YMM registers into acc
// (row-major [32]float64), overwriting acc.
//
//go:noescape
func micro4x8avx(kc int, ap, bp, acc *float64)

// dotuTileAVX512 runs the dotu lanes of the four rows x0…x3 against the
// right lane panel bp over kc inner steps (see dotuTile).
//
//go:noescape
func dotuTileAVX512(kc int, x0, x1, x2, x3, bp, lanes, out *float64, os, t0, mask, rows int, first, last bool)

// widenAVX sets dst[i] to the float32 at src[4i:] for i < n; wide adds
// the ZMM pass.
//
//go:noescape
func widenAVX(n int, dst *float64, src *byte, wide bool)

// dotsLanesAVX writes out[j] = dotu(x[:n], y[j·ys:][:n]) for j < ny.
//
//go:noescape
func dotsLanesAVX(n int, x, y *float64, ys, ny int, out *float64)

// accumRowsAVX adds c[i·cs]·x[i·xs:][:n] to y[:n] for rows i < rows in
// ascending order, skipping zero coefficients.
//
//go:noescape
func accumRowsAVX(n int, y, c *float64, cs int, x *float64, xs, rows int)

// accumRowsAVX512 is accumRowsAVX for n a multiple of 32, thirty-two
// columns per pass.
//
//go:noescape
func accumRowsAVX512(n int, y, c *float64, cs int, x *float64, xs, rows int)

// gramRank4AVX adds the rank-4 update Σ_k w_k x_k x_kᵀ of the rows
// x_k = x[k·xs:][:r1] to rows [r0, r1) of the lower triangle of the
// matrix at dst (row stride ds), in weightedGramRange's per-element order.
//
//go:noescape
func gramRank4AVX(r0, r1 int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)

// rotAVX runs rotGo over n elements of x and y; wide adds the ZMM pass.
//
//go:noescape
func rotAVX(n int, x, y *float64, c, s float64, wide bool)

// symRank2AVX runs symRank2Go over the n×n matrix at a (row stride as);
// wide adds the ZMM pass.
//
//go:noescape
func symRank2AVX(n int, a *float64, as int, u, p *float64, wide bool)

// rank1SubAVX runs rank1SubGo over rows×n of the matrix at a (row
// stride as) with coefficients c[k·cs]; wide adds the ZMM pass.
//
//go:noescape
func rank1SubAVX(n int, a *float64, as, rows int, c *float64, cs int, x *float64, wide bool)

// sqNormsAVX512 is WeightedSqNorms for eight rows of x over jt whole
// lane panels of w at inner dimension kc ≤ gemmKC, writing the eight
// sums to qb and qp.
//
//go:noescape
func sqNormsAVX512(kc, jt int, w, x, a, a2, qb, qp *float64)
