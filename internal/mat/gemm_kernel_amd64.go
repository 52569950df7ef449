package mat

// useAsmKernel selects the SSE2 kernels (gemm_amd64.s, dot_amd64.s). SSE2
// is in the amd64 baseline, so no runtime feature detection is required.
const useAsmKernel = true

// micro4x4sse computes the 4×4 tile product of packed panels ap and bp
// over kc steps into acc (row-major [16]float64), overwriting acc.
//
//go:noescape
func micro4x4sse(kc int, ap, bp, acc *float64)

// dotsLanesSSE writes out[j] = dotu(x[:n], y[j·ys:][:n]) for j < ny.
//
//go:noescape
func dotsLanesSSE(n int, x, y *float64, ys, ny int, out *float64)

// accumRowsSSE adds c[i·cs]·x[i·xs:][:n] to y[:n] for rows i < rows in
// ascending order, skipping zero coefficients.
//
//go:noescape
func accumRowsSSE(n int, y, c *float64, cs int, x *float64, xs, rows int)
