package mat

// Kernel selection on amd64. The inner loops run at one of three levels,
// picked once at start-up and never changed:
//
//   - kernelAVX512: the CPU has AVX, FMA and AVX-512F (CPUID.7:EBX bit
//     16) and the OS saves the opmask and ZMM state, i.e. XCR0 has bits
//     1, 2, 5, 6 and 7 (mask 0xE6; a CPU flag alone is not enough,
//     because an OS that does not save the upper ZMM halves would corrupt
//     them across context switches). The GEMM micro-kernel keeps a 4×16
//     tile over two adjacent lane panels in eight ZMM registers (a lone
//     or partial panel a 4×8 tile in four), the fused ROUND norms the
//     same 4×16 tile for two panels of points, the dotu-order tile of
//     MulPackedRightInOrder the four dotu lanes of four rows in sixteen,
//     AccumRows sixty-four, then thirty-two columns of two output rows
//     per pass over x before its AVX passes,
//     WidenFloat32 sixteen floats and the Gram's rank-4 update eight
//     columns; the other loops run their AVX code.
//   - kernelAVX: the CPU has AVX and FMA (CPUID.1:ECX bits 28 and 12) and
//     the OS saves the YMM state (XCR0 bits 1 and 2). The micro-kernel
//     keeps a tile row in two YMM registers.
//   - kernelPortable: every other host runs the Go loops, an AVX host
//     without FMA included.
//
// The micro-kernels read the panel layout that packed.go owns: four left
// rows and eight right columns (gemmNR) interleaved by k, so one 64-byte
// load fetches the eight right values of a k step and a ZMM row, or two
// YMM halves, covers the whole tile row.
//
// Every multiply-then-add of a term in the product, dot, axpy, Gram and
// norm kernels is one fused multiply-add (VFMADD231PD), and the portable
// loops call math.FMA in the same places: a·b + c is rounded once, on
// every level, so the levels give the same bits and no product, ROUND
// score or selection depends on the host. A host without FMA hardware
// runs the portable level, where math.FMA is exact in software. The
// eigensolver kernels (rot, symRank2, rank1Sub) keep a separate multiply
// and add, see eig.go. The tests compare each level with the portable one
// bit for bit.

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

// hasAVX reports whether the CPU supports AVX and FMA and the OS has
// enabled the YMM state (cpu_amd64.s).
func hasAVX() bool

// hasAVX512 reports whether the CPU supports AVX, FMA and AVX-512F and the
// OS has enabled the opmask and ZMM state (cpu_amd64.s).
func hasAVX512() bool

// micro4x8avx512 computes the 4×8 tile product of packed panels ap and bp
// over kc steps and writes tile row r to dst[r·ds:][:8]: it overwrites
// the row, or adds the tile onto it (dst += acc) when add is set.
//
//go:noescape
func micro4x8avx512(kc int, ap, bp, dst *float64, ds int, add bool)

// micro4x16avx512 is micro4x8avx512 over the two adjacent right lane
// panels at bp: the 4×16 tile of tile columns [0, 16), row r to
// dst[r·ds:][:16].
//
//go:noescape
func micro4x16avx512(kc int, ap, bp, dst *float64, ds int, add bool)

// dots4x32AVX512 computes the blocked-order tile of the four rows
// x + r·xs, r < rows (the last repeated), read in place, by the np ≤ 4
// adjacent right lane panels at bp over kc steps, and writes the tile
// elements whose bit is set in mask, panel q's row l (bit 8q+l) of tile
// row r to dst[r·ds + 8q + l − t0]: it overwrites them, or adds the tile
// onto them (dst += acc) when add is set.
//
//go:noescape
func dots4x32AVX512(kc int, x *float64, xs int, bp, dst *float64, ds, t0, mask, rows, np int, add bool)

// micro4x8avx computes the same tile on YMM registers into acc
// (row-major [32]float64), overwriting acc.
//
//go:noescape
func micro4x8avx(kc int, ap, bp, acc *float64)

// dotuTileAVX512 runs the dotu lanes of the rows x + r·xs, r < rows
// (four of them, the last repeated), against the right lane panel bp over
// kc inner steps (see dotuTile).
//
//go:noescape
func dotuTileAVX512(kc int, x *float64, xs int, bp, lanes, out *float64, os, t0, mask, rows int, first, last bool)

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

// accumRows2AVX512 is accumRowsAVX512 for the two output rows y and
// y + ys at once, with coefficients c[i·cs] and c[i·cs + 1]: each row of
// x is read once for both, sixty-four columns per pass, then thirty-two.
//
//go:noescape
func accumRows2AVX512(n int, y *float64, ys int, c *float64, cs int, x *float64, xs, rows int)

// gramRank4AVX adds the rank-4 update Σ_k w_k x_k x_kᵀ of the rows
// x_k = x[k·xs:][:d] to the lower triangle of the d×d matrix at dst (row
// stride ds), in WeightedGramAddLower's per-element order.
//
//go:noescape
func gramRank4AVX(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)

// gramRank4AVX512 is gramRank4AVX eight columns per ZMM register, with
// each row's last partial chunk under a k-mask.
//
//go:noescape
func gramRank4AVX512(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)

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

// sqNorms16AVX512 is WeightedSqNorms for the sixteen rows of x in two
// adjacent lane panels over jt whole lane panels of w, two at a time (an
// 8×16 tile), at inner dimension kc ≤ gemmKC, writing the sixteen sums
// to qb and qp.
//
//go:noescape
func sqNorms16AVX512(kc, jt int, w, x, a, a2, qb, qp *float64)
