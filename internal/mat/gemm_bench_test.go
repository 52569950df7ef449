package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// GEMM benchmarks: the blocked kernels against the unblocked reference at
// the dimensions the ROADMAP targets (d ≥ 256 feature blocks). Run with
//
//	go test -bench 'Gemm|MatVec' -benchmem ./internal/mat
func benchDims(d int) (*Dense, *Dense) {
	rng := rand.New(rand.NewSource(42))
	return randDense(rng, d, d), randDense(rng, d, d)
}

func benchmarkGemm(b *testing.B, d int, f func(dst, x, y *Dense) *Dense) {
	x, y := benchDims(d)
	dst := NewDense(d, d)
	b.SetBytes(int64(8 * d * d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, x, y)
	}
}

func BenchmarkGemmBlocked(b *testing.B) {
	for _, d := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) { benchmarkGemm(b, d, Mul) })
	}
}

func BenchmarkGemmNaive(b *testing.B) {
	for _, d := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) { benchmarkGemm(b, d, RefMul) })
	}
}

func BenchmarkGemmTransABlocked(b *testing.B) {
	benchmarkGemm(b, 256, MulTransA)
}

func BenchmarkGemmTransANaive(b *testing.B) {
	benchmarkGemm(b, 256, RefMulTransA)
}

func BenchmarkMatVec(b *testing.B) {
	a, _ := benchDims(512)
	x := make([]float64, 512)
	dst := make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, a, x)
	}
}

func BenchmarkWeightedGram(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randDense(rng, 2000, 64)
	w := make([]float64, 2000)
	for i := range w {
		w[i] = rng.Float64()
	}
	dst := NewDense(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedGram(dst, x, w)
	}
}

// Kernel microbenchmarks: the packed micro-kernel at the full k-panel
// depth (gemmKC), then at d = 64 the four-lane dot of the a·bᵀ row
// kernel, the multi-row axpy of the aᵀ·b row kernel and the rank-4 Gram
// update.
func BenchmarkMicroKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ap := make([]float64, gemmMR*gemmKC)
	bp := make([]float64, gemmNR*gemmKC)
	spread(rng, ap)
	spread(rng, bp)
	dst := NewDense(gemmMR, gemmNR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		micro4x8(gemmKC, ap, bp, dst, 0, 0, gemmMR, 0, gemmNR, false)
	}
}

// BenchmarkMicroKernel16 is BenchmarkMicroKernel for the 4×16 tile over
// two adjacent right lane panels: twice the flops per call.
func BenchmarkMicroKernel16(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ap := make([]float64, gemmMR*gemmKC)
	bp := make([]float64, 2*gemmNR*gemmKC)
	spread(rng, ap)
	spread(rng, bp)
	dst := NewDense(gemmMR, 2*gemmNR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		micro4x16(gemmKC, ap, bp, dst, 0, 0, gemmMR, false)
	}
}

// BenchmarkWeightedSqNorms times ROUND's fused norms of one 64-point tile
// against one class's 64×64 W at d = 64.
func BenchmarkWeightedSqNorms(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	w, x := randDense(rng, 64, 64), randDense(rng, 64, 64)
	a, a2 := make([]float64, 64), make([]float64, 64)
	spread(rng, a)
	spread(rng, a2)
	qb, qp := make([]float64, 64), make([]float64, 64)
	var wl, xp Packed
	wl.PackLeft(w)
	xp.PackRight(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedSqNorms(qb, qp, &wl, &xp, a, a2)
	}
}

func BenchmarkDotsLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 64)
	spread(rng, x)
	m := randDense(rng, 64, 64)
	out := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dotsLanes(out, x, m)
	}
}

func BenchmarkAccumRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randDense(rng, 64, 64)
	g := make([]float64, 64)
	spread(rng, g)
	y := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccumRows(y, g, 1, x)
	}
}

func BenchmarkGramRank4(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randDense(rng, 64, 64)
	w := make([]float64, 64)
	spread(rng, w)
	dst := NewDense(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedGramAddLower(dst, x, w)
	}
}

// BenchmarkDotuOrder times the product of a 64-row tile with 10, 16 and
// 100 probe rows at d = 64, the Lemma-2 sweep's dot shapes for c = 1
// and small s, c = 1 and s = 16, and c = 10 and s = 10: "rows" reads the
// probes in place (MulTransBInOrder) and "tile" reads them packed
// (MulPackedRightInOrder), both in the unblocked (dotu) order and with
// the same bits; "blocked" is the packed product in the blocked order
// (MulPackedRight), the one order a sweep would use for every block if
// it kept only one.
func BenchmarkDotuOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randDense(rng, 64, 64)
	for _, probes := range []int{10, 16, 100} {
		v := randDense(rng, probes, 64)
		dst := NewDense(64, probes)
		var pv Packed
		pv.PackRight(v)
		b.Run(fmt.Sprintf("p%d", probes), func(b *testing.B) {
			b.Run("rows", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulTransBInOrder(dst, x, v, false)
				}
			})
			b.Run("tile", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulPackedRightInOrder(dst, x, &pv, 0, false)
				}
			})
			b.Run("blocked", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MulPackedRight(dst, x, &pv, 0)
				}
			})
		})
	}
}

// BenchmarkWidenFloat32 widens a 4096×64 float32 block, the decode of a
// shard block.
func BenchmarkWidenFloat32(b *testing.B) {
	const n = 4096 * 64
	src := make([]byte, 4*n)
	rand.New(rand.NewSource(9)).Read(src)
	dst := make([]float64, n)
	b.SetBytes(4 * n)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WidenFloat32(dst, src)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			widenGo(dst, src)
		}
	})
}
