//go:build !amd64

package mat

// useAsmKernel is false off amd64; the portable Go loops run instead.
const useAsmKernel = false

func micro4x4sse(kc int, ap, bp, acc *float64) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func dotsLanesSSE(n int, x, y *float64, ys, ny int, out *float64) {
	panic("mat: asm dot kernel unavailable on this architecture")
}

func accumRowsSSE(n int, y, c *float64, cs int, x *float64, xs, rows int) {
	panic("mat: asm accumulate kernel unavailable on this architecture")
}
