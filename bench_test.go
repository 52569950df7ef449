package firal_test

// One benchmark family per paper table/figure (DESIGN.md § 4). Each
// benchmark regenerates a scaled version of the corresponding experiment;
// the cmd/ binaries print the full series at arbitrary sizes. Run with
//
//	go test -bench=. -benchmem
//
// Naming: Benchmark<ID>_<variant> where ID is the paper table/figure.

import (
	"context"
	"fmt"
	"testing"

	pub "repro"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/experiments"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rnd"
)

// benchProblem builds a FIRAL problem for performance benchmarks.
func benchProblem(n, d, c int, seed int64) *firal.Problem {
	labeled, pool := experiments.SynthSets(2*c, n, d, c, seed)
	return firal.NewProblem(labeled, pool)
}

// --- Fig. 1: CG with and without the block-diagonal preconditioner. ---

func benchmarkFig1(b *testing.B, precond bool) {
	p := benchProblem(2000, 24, 9, 1)
	z := make([]float64, p.N())
	mat.Fill(z, 1/float64(p.N()))
	ws := mat.NewWorkspace()
	sig := krylov.BlockOp(p.SigmaMatVec(ws, z))
	var pc krylov.BlockOp
	if precond {
		blocks, err := p.SigmaBlocks(z)
		if err != nil {
			b.Fatal(err)
		}
		bp := firal.NewBlockPreconditionerWS()
		if err := bp.Update(blocks); err != nil {
			b.Fatal(err)
		}
		pc = bp.ApplyBlock
	}
	rhs := mat.NewDense(1, p.Ed())
	rnd.New(2).Rademacher(rhs.Data)
	x := mat.NewDense(1, p.Ed())
	opt := krylov.Options{Tol: 1e-3, MaxIter: 600, Workspace: ws}
	var res []krylov.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = krylov.SolveBlockInto(context.Background(), sig, pc, rhs, x, res, opt)
		b.ReportMetric(float64(res[0].Iterations), "cg-iters")
	}
}

func BenchmarkFig1_CGPlain(b *testing.B)          { benchmarkFig1(b, false) }
func BenchmarkFig1_CGPreconditioned(b *testing.B) { benchmarkFig1(b, true) }

// --- Fig. 2/3: one active-learning round per selector. ---

func benchmarkAccuracyRound(b *testing.B, mk func() pub.Selector, cfg dataset.Config) {
	bench := pub.Synthetic{
		Name: cfg.Name, Classes: cfg.Classes, Dim: cfg.Dim,
		PoolSize: cfg.PoolSize, EvalSize: cfg.EvalSize,
		InitPerClass: cfg.InitPerClass, Rounds: cfg.Rounds, Budget: cfg.Budget,
		ImbalanceRatio: cfg.ImbalanceRatio,
	}
	learnCfg := bench.Generate(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		learner, err := pub.NewLearner(learnCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := learner.StepContext(context.Background(), mk(), cfg.Budget)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.EvalAccuracy, "eval-acc")
	}
}

func fig2Config() dataset.Config { return dataset.CIFAR10().Scale(0.1) }

func BenchmarkFig2_Random(b *testing.B) {
	benchmarkAccuracyRound(b, func() pub.Selector { return pub.Random() }, fig2Config())
}

func BenchmarkFig2_KMeans(b *testing.B) {
	benchmarkAccuracyRound(b, func() pub.Selector { return pub.KMeans() }, fig2Config())
}

func BenchmarkFig2_Entropy(b *testing.B) {
	benchmarkAccuracyRound(b, func() pub.Selector { return pub.Entropy() }, fig2Config())
}

func BenchmarkFig2_ExactFIRAL(b *testing.B) {
	benchmarkAccuracyRound(b, func() pub.Selector { return pub.ExactFIRAL(pub.FIRALOptions{MaxRelaxIterations: 20}) }, fig2Config())
}

func BenchmarkFig2_ApproxFIRAL(b *testing.B) {
	benchmarkAccuracyRound(b, func() pub.Selector { return pub.ApproxFIRAL(pub.FIRALOptions{MaxRelaxIterations: 20}) }, fig2Config())
}

// Fig. 3 uses a Caltech-101-shaped config (imbalanced, many classes; no
// Exact-FIRAL, as in the paper) at the reduced dimensions recorded in
// EXPERIMENTS.md.
func BenchmarkFig3_ApproxFIRAL_Caltech101(b *testing.B) {
	cfg := dataset.Caltech101().Scale(0.3)
	cfg.Dim, cfg.Classes, cfg.Budget, cfg.Rounds = 32, 34, 20, 3
	benchmarkAccuracyRound(b, func() pub.Selector {
		return pub.ApproxFIRAL(pub.FIRALOptions{MaxRelaxIterations: 10})
	}, cfg)
}

// --- Fig. 4: RELAX sensitivity to s (probe count). ---

func benchmarkFig4(b *testing.B, s int) {
	p := benchProblem(600, 20, 9, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := firal.RelaxFast(context.Background(), p, 10, firal.RelaxOptions{
			FixedIterations: 5, Probes: s, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Objectives[len(res.Objectives)-1], "objective")
	}
}

func BenchmarkFig4_RelaxS10(b *testing.B)  { benchmarkFig4(b, 10) }
func BenchmarkFig4_RelaxS20(b *testing.B)  { benchmarkFig4(b, 20) }
func BenchmarkFig4_RelaxS100(b *testing.B) { benchmarkFig4(b, 100) }

// --- Table III: direct vs fast (Lemma 2) per-point Hessian matvec. ---
// The paper's comparison is per point: the direct method forms/applies the
// dense dc×dc H_i (O(d²c²) storage and compute) while the fast method
// needs O(dc) of both.

func matvecSets(n, d, c int) (*hessian.Set, []float64) {
	_, pool := experiments.SynthSets(2, n, d, c, 4)
	v := make([]float64, d*c)
	rnd.New(5).Normal(v, 0, 1)
	return pool, v
}

func BenchmarkTableIII_FastMatvec(b *testing.B) {
	pool, v := matvecSets(4, 32, 15)
	point := hessian.NewSet(pool.X.RowSlice(0, 1), pool.H.RowSlice(0, 1))
	ws := mat.NewWorkspace()
	vt := &mat.Dense{Rows: 1, Cols: len(v), Stride: len(v), Data: v}
	dst := mat.NewDense(1, len(v))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hessian.MatVecBlockWS(ws, point, dst, vt, nil)
	}
}

func BenchmarkTableIII_DirectMatvec(b *testing.B) {
	pool, v := matvecSets(4, 32, 15)
	dense := hessian.DensePoint(pool.X.Row(0), pool.H.Row(0))
	dst := make([]float64, len(v))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matVec(dst, dense, v)
	}
}

// BenchmarkTableIII_DirectAssembly includes the H_i materialization the
// direct method cannot avoid when Hessians change (every RELAX iteration).
func BenchmarkTableIII_DirectAssembly(b *testing.B) {
	pool, v := matvecSets(4, 32, 15)
	dst := make([]float64, len(v))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense := hessian.DensePoint(pool.X.Row(0), pool.H.Row(0))
		matVec(dst, dense, v)
	}
}

// --- Table VI: Exact vs Approx RELAX and ROUND. ---

func tableVIProblem() *firal.Problem { return benchProblem(250, 20, 19, 6) }

func BenchmarkTableVI_RelaxExact(b *testing.B) {
	p := tableVIProblem()
	for i := 0; i < b.N; i++ {
		if _, err := firal.RelaxExact(context.Background(), p, 5, firal.RelaxOptions{FixedIterations: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI_RelaxApprox(b *testing.B) {
	p := tableVIProblem()
	for i := 0; i < b.N; i++ {
		if _, err := firal.RelaxFast(context.Background(), p, 5, firal.RelaxOptions{FixedIterations: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI_RoundExact(b *testing.B) {
	p := tableVIProblem()
	z := make([]float64, p.N())
	mat.Fill(z, 3/float64(p.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := firal.RoundExact(p, z, 3, firal.RoundOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI_RoundApprox(b *testing.B) {
	p := tableVIProblem()
	z := make([]float64, p.N())
	mat.Fill(z, 3/float64(p.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := firal.RoundFast(p, z, 3, firal.RoundOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: single-device RELAX/ROUND at increasing d and c. ---

func benchmarkFig5Relax(b *testing.B, d, c int) {
	p := benchProblem(2000, d, c, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := firal.RelaxFast(context.Background(), p, 10, firal.RelaxOptions{
			FixedIterations: 1, Probes: 10, CGTol: 1e-30, CGMaxIter: 10, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_RelaxD16(b *testing.B) { benchmarkFig5Relax(b, 16, 10) }
func BenchmarkFig5_RelaxD32(b *testing.B) { benchmarkFig5Relax(b, 32, 10) }
func BenchmarkFig5_RelaxD64(b *testing.B) { benchmarkFig5Relax(b, 64, 10) }
func BenchmarkFig5_RelaxC8(b *testing.B)  { benchmarkFig5Relax(b, 24, 8) }
func BenchmarkFig5_RelaxC16(b *testing.B) { benchmarkFig5Relax(b, 24, 16) }
func BenchmarkFig5_RelaxC32(b *testing.B) { benchmarkFig5Relax(b, 24, 32) }

func benchmarkFig5Round(b *testing.B, d, c int) {
	p := benchProblem(2000, d, c, 8)
	z := make([]float64, p.N())
	mat.Fill(z, 10/float64(p.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := firal.RoundFast(p, z, 1, firal.RoundOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_RoundD16(b *testing.B) { benchmarkFig5Round(b, 16, 10) }
func BenchmarkFig5_RoundD32(b *testing.B) { benchmarkFig5Round(b, 32, 10) }
func BenchmarkFig5_RoundD64(b *testing.B) { benchmarkFig5Round(b, 64, 10) }
func BenchmarkFig5_RoundC8(b *testing.B)  { benchmarkFig5Round(b, 24, 8) }
func BenchmarkFig5_RoundC16(b *testing.B) { benchmarkFig5Round(b, 24, 16) }
func BenchmarkFig5_RoundC32(b *testing.B) { benchmarkFig5Round(b, 24, 32) }

// runRanks is mpi.Run failing the benchmark when a rank panicked.
func runRanks(b *testing.B, p int, fn func(c *mpi.Comm)) {
	b.Helper()
	if _, err := mpi.Run(p, fn); err != nil {
		b.Fatal(err)
	}
}

// --- Figs. 6–7: distributed RELAX/ROUND at the paper's rank counts. ---

func benchmarkFig6Relax(b *testing.B, ranks int) {
	labeled, pool := experiments.SynthSets(20, 3000, 32, 10, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(b, ranks, func(c *mpi.Comm) {
			sh := distfiral.MakeStreamShard(labeled, dataset.NewMatrixSource(pool.X), pool.H, 0, ranks, c.Rank())
			_, err := distfiral.Relax(context.Background(), c, sh, 10, firal.RelaxOptions{
				FixedIterations: 1, Probes: 10, CGTol: 1e-30, CGMaxIter: 10, Seed: 1,
			})
			if err != nil {
				b.Error(err)
			}
		})
	}
}

func BenchmarkFig6_RelaxP1(b *testing.B)  { benchmarkFig6Relax(b, 1) }
func BenchmarkFig6_RelaxP2(b *testing.B)  { benchmarkFig6Relax(b, 2) }
func BenchmarkFig6_RelaxP3(b *testing.B)  { benchmarkFig6Relax(b, 3) }
func BenchmarkFig6_RelaxP6(b *testing.B)  { benchmarkFig6Relax(b, 6) }
func BenchmarkFig6_RelaxP12(b *testing.B) { benchmarkFig6Relax(b, 12) }

func benchmarkFig7Round(b *testing.B, ranks int) {
	labeled, pool := experiments.SynthSets(20, 3000, 32, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(b, ranks, func(c *mpi.Comm) {
			sh := distfiral.MakeStreamShard(labeled, dataset.NewMatrixSource(pool.X), pool.H, 0, ranks, c.Rank())
			z := make([]float64, sh.PoolLocal.N())
			mat.Fill(z, 1.0/3000)
			if _, err := distfiral.Round(context.Background(), c, sh, z, 1, 0); err != nil {
				b.Error(err)
			}
		})
	}
}

func BenchmarkFig7_RoundP1(b *testing.B)  { benchmarkFig7Round(b, 1) }
func BenchmarkFig7_RoundP2(b *testing.B)  { benchmarkFig7Round(b, 2) }
func BenchmarkFig7_RoundP3(b *testing.B)  { benchmarkFig7Round(b, 3) }
func BenchmarkFig7_RoundP6(b *testing.B)  { benchmarkFig7Round(b, 6) }
func BenchmarkFig7_RoundP12(b *testing.B) { benchmarkFig7Round(b, 12) }

// --- Tables II/IV sanity: report the analytic ratios as metrics. ---

func BenchmarkTableII_ComplexityRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, d, c := 50000, 383, 1000
		rStorage := perfmodel.ExactStorage(n, d, c) / perfmodel.ApproxRelaxStorage(n, d, c, 10)
		rRound := perfmodel.ExactRoundWork(200, n, d, c) / perfmodel.ApproxRoundWork(200, n, d, c)
		b.ReportMetric(rStorage, "storage-ratio")
		b.ReportMetric(rRound, "round-work-ratio")
	}
}

// --- MPI collective microbenchmarks (substrate of Table IV). ---

func benchmarkAllreduce(b *testing.B, ranks, words int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(b, ranks, func(c *mpi.Comm) {
			data := make([]float64, words)
			c.Allreduce(data, mpi.Sum)
		})
	}
}

func BenchmarkTableIV_AllreduceP3(b *testing.B)  { benchmarkAllreduce(b, 3, 4096) }
func BenchmarkTableIV_AllreduceP12(b *testing.B) { benchmarkAllreduce(b, 12, 4096) }

func ExampleSelector_names() {
	for _, s := range []pub.Selector{pub.Random(), pub.KMeans(), pub.Entropy(),
		pub.ApproxFIRAL(pub.FIRALOptions{}), pub.ExactFIRAL(pub.FIRALOptions{})} {
		fmt.Println(s.Name())
	}
	// Output:
	// Random
	// K-Means
	// Entropy
	// Approx-FIRAL
	// Exact-FIRAL
}

// matVec returns a·x in dst (allocated when nil), one mat.Dot per row.
func matVec(dst []float64, a *mat.Dense, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	for i := range dst {
		dst[i] = mat.Dot(a.Row(i), x)
	}
	return dst
}
