//go:build !amd64

package mat

// kernel is kernelPortable off amd64; the portable Go loops run instead.
const kernel = kernelPortable

func micro4x8avx512(kc int, ap, bp, dst *float64, ds int, add bool) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func micro4x16avx512(kc int, ap, bp, dst *float64, ds int, add bool) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func dots4x32AVX512(kc int, x *float64, xs int, bp, dst *float64, ds, t0, mask, rows, np int, add bool) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func micro4x8avx(kc int, ap, bp, acc *float64) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func dotuTileAVX512(kc int, x *float64, xs int, bp, lanes, out *float64, os, t0, mask, rows int, first, last bool) {
	panic("mat: asm dot tile unavailable on this architecture")
}

func widenAVX(n int, dst *float64, src *byte, wide bool) {
	panic("mat: asm widen kernel unavailable on this architecture")
}

func dotsLanesAVX(n int, x, y *float64, ys, ny int, out *float64) {
	panic("mat: asm dot kernel unavailable on this architecture")
}

func accumRowsAVX(n int, y, c *float64, cs int, x *float64, xs, rows int) {
	panic("mat: asm accumulate kernel unavailable on this architecture")
}

func accumRowsAVX512(n int, y, c *float64, cs int, x *float64, xs, rows int) {
	panic("mat: asm accumulate kernel unavailable on this architecture")
}

func accumRows2AVX512(n int, y *float64, ys int, c *float64, cs int, x *float64, xs, rows int) {
	panic("mat: asm accumulate kernel unavailable on this architecture")
}

func gramRank4AVX(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64) {
	panic("mat: asm Gram kernel unavailable on this architecture")
}

func gramRank4AVX512(d int, dst *float64, ds int, x *float64, xs int, w0, w1, w2, w3 float64) {
	panic("mat: asm Gram kernel unavailable on this architecture")
}

func rotAVX(n int, x, y *float64, c, s float64, wide bool) {
	panic("mat: asm rotation kernel unavailable on this architecture")
}

func symRank2AVX(n int, a *float64, as int, u, p *float64, wide bool) {
	panic("mat: asm rank-2 kernel unavailable on this architecture")
}

func rank1SubAVX(n int, a *float64, as, rows int, c *float64, cs int, x *float64, wide bool) {
	panic("mat: asm rank-1 kernel unavailable on this architecture")
}

func sqNorms16AVX512(kc, jt int, w, x, a, a2, qb, qp *float64) {
	panic("mat: asm norm kernel unavailable on this architecture")
}
