package mat

// useAsmKernel selects the AVX kernels (gemm_amd64.s, dot_amd64.s). It is
// set once from CPUID: hosts without AVX, or whose OS does not save the
// YMM registers, run the portable Go loops, which produce the same bits.
var useAsmKernel = hasAVX()

// hasAVX reports whether the CPU supports AVX and the OS has enabled the
// YMM state (cpu_amd64.s).
func hasAVX() bool

// micro4x4avx computes the 4×4 tile product of packed panels ap and bp
// over kc steps into acc (row-major [16]float64), overwriting acc.
//
//go:noescape
func micro4x4avx(kc int, ap, bp, acc *float64)

// dotsLanesAVX writes out[j] = dotu(x[:n], y[j·ys:][:n]) for j < ny.
//
//go:noescape
func dotsLanesAVX(n int, x, y *float64, ys, ny int, out *float64)

// accumRowsAVX adds c[i·cs]·x[i·xs:][:n] to y[:n] for rows i < rows in
// ascending order, skipping zero coefficients.
//
//go:noescape
func accumRowsAVX(n int, y, c *float64, cs int, x *float64, xs, rows int)

// gramRank4AVX adds the rank-4 update Σ_k w_k x_k x_kᵀ of the rows
// x_k = x[k·xs:][:d] to the lower triangle of the d×d matrix at dst (row
// stride ds), in weightedGramRange's per-element order.
//
//go:noescape
func gramRank4AVX(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64)
