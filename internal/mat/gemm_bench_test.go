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
		weightedGramRange(dst, x, w, 0, 64)
	}
}

// BenchmarkDotuOrder times the unblocked (dotu-order) product of a 64-row
// tile with 16 probe rows at d = 64, the Lemma-2 sweep's dot shape for
// small c: "rows" reads the probes in place (MulTransBInOrder), "tile"
// reads them packed (MulPackedRightInOrder). Both give the same bits.
func BenchmarkDotuOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, v := randDense(rng, 64, 64), randDense(rng, 16, 64)
	dst := NewDense(64, 16)
	var pv Packed
	pv.PackRight(v)
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
