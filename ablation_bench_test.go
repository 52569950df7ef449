package firal_test

// Ablation benchmarks for the design choices called out in DESIGN.md § 5:
// the block-diagonal CG preconditioner on/off inside a full RELAX solve,
// probe batching, and the recursive-doubling vs ring allreduce paths. The
// Woodbury vs naive exact-ROUND ablation lives in internal/firal, next to
// its naive oracle.

import (
	"context"
	"testing"

	"repro/internal/firal"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// --- RELAX: preconditioned vs unpreconditioned full solves. ---
// (BenchmarkFig1_* measures a single linear system; this measures the
// end-to-end mirror-descent iteration cost difference.)

func benchmarkRelaxPrecondAblation(b *testing.B, cgTol float64, iters int) {
	p := benchProblem(1500, 24, 9, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := firal.RelaxFast(context.Background(), p, 10, firal.RelaxOptions{
			FixedIterations: iters, Probes: 10, CGTol: cgTol, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CGIterations), "total-cg-iters")
	}
}

func BenchmarkAblation_RelaxCGTolLoose(b *testing.B) { benchmarkRelaxPrecondAblation(b, 0.1, 2) }
func BenchmarkAblation_RelaxCGTolTight(b *testing.B) { benchmarkRelaxPrecondAblation(b, 1e-3, 2) }

// --- Probe count: gradient-estimation cost scaling in s. ---

func benchmarkRelaxProbes(b *testing.B, s int) {
	p := benchProblem(1500, 24, 9, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := firal.RelaxFast(context.Background(), p, 10, firal.RelaxOptions{
			FixedIterations: 1, Probes: s, CGTol: 1e-30, CGMaxIter: 8, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Probes5(b *testing.B)  { benchmarkRelaxProbes(b, 5) }
func BenchmarkAblation_Probes10(b *testing.B) { benchmarkRelaxProbes(b, 10) }
func BenchmarkAblation_Probes40(b *testing.B) { benchmarkRelaxProbes(b, 40) }

// --- MPI allreduce algorithm selection: power-of-two (recursive doubling)
// vs non-power-of-two (ring reduce-scatter + allgather). ---

func benchmarkAllreduceWords(b *testing.B, ranks, words int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRanks(b, ranks, func(c *mpi.Comm) {
			data := make([]float64, words)
			for j := range data {
				data[j] = float64(c.Rank() + j)
			}
			c.Allreduce(data, mpi.Sum)
		})
	}
}

func BenchmarkAblation_AllreduceRecDoubleP4(b *testing.B) { benchmarkAllreduceWords(b, 4, 1<<14) }
func BenchmarkAblation_AllreduceRingP6(b *testing.B)      { benchmarkAllreduceWords(b, 6, 1<<14) }

// --- Eigenvalue solver: values-only vs full decomposition (the ROUND step
// needs only eigenvalues; Algorithm 3 line 9). ---

func benchmarkEig(b *testing.B, valsOnly bool, n int) {
	rngMat := mat.NewDense(n+4, n)
	for i := range rngMat.Data {
		rngMat.Data[i] = float64((i*2654435761)%1000)/500 - 1
	}
	a := mat.MulTransA(nil, rngMat, rngMat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if valsOnly {
			if _, err := mat.SymEigvals(a); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := mat.SymEig(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblation_EigvalsOnly64(b *testing.B) { benchmarkEig(b, true, 64) }
func BenchmarkAblation_EigFull64(b *testing.B)     { benchmarkEig(b, false, 64) }
