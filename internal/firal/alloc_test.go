package firal

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rnd"
	"repro/internal/timing"
)

// BenchmarkScores measures the ROUND pool-scoring pass with warm
// persistent state; -benchmem must report 0 allocs/op on any core count
// (the persistent worker pool dispatches without forking or allocating).
func BenchmarkScores(b *testing.B) {
	p := testProblem(32, 20, 2000, 64, 10)
	z := make([]float64, p.N())
	mat.Fill(z, 10/float64(p.N()))
	st, err := testRoundState(p, z, 10, p.DefaultEta(), timing.New())
	if err != nil {
		b.Fatal(err)
	}
	scores := make([]float64, p.N())
	st.Scores(p.Pool, scores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Scores(p.Pool, scores)
	}
}

// TestScoresZeroAllocWarm pins the ROUND scoring pass: with the
// RoundState's per-worker tile scratch warmed by one call, rescoring the
// pool allocates nothing — the resident pool of one block, and the same
// pool streamed in nine blocks of 48 rows, which at 2 and 4 workers
// hands whole blocks to the workers (parallel.ForBlocks).
func TestScoresZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	p := testProblem(31, 10, 400, 12, 4)
	z := make([]float64, p.N())
	mat.Fill(z, 3/float64(p.N()))
	st, err := testRoundState(p, z, 3, p.DefaultEta(), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, p.N())
	for _, nw := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(max(nw, 2))
		parallel.SetMaxWorkers(nw)
		for name, pool := range map[string]hessian.Pool{"resident": p.Pool, "streamed": streamProblem(p, 48).Pool} {
			st.Scores(pool, scores) // warm the lazily-sized pool scratch
			if allocs := testing.AllocsPerRun(30, func() {
				st.Scores(pool, scores)
			}); allocs != 0 {
				t.Fatalf("%s at %d workers: Scores allocates %.1f objects per call with warm state", name, nw, allocs)
			}
		}
	}
}

// TestRoundSteadyStateZeroAllocMulticore pins the tentpole guarantee:
// with four workers engaged, a full steady-state ROUND candidate step —
// rescoring the pool, the argmax, AddPoint, the block eigenvalue solves,
// the ν bisection, and the per-class eigenbasis rebuild of B_{t+1}
// (mat.SymEigInto into state-owned storage) — allocates nothing once the
// state is warm. Before the persistent worker pool this path allocated
// O(workers) per kernel call, and before the Workspace eigensolver a
// fresh eigendecomposition per class per candidate.
func TestRoundSteadyStateZeroAllocMulticore(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	p := testProblem(17, 20, 600, 32, 8)
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	ph := timing.New()
	st, err := testRoundState(p, z, 5, p.DefaultEta(), ph)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, p.N())
	step := func() {
		st.Scores(p.Pool, scores)
		best, bestV := -1, math.Inf(-1)
		for i := range scores {
			if scores[i] > bestV {
				best, bestV = i, scores[i]
			}
		}
		if _, err := st.Update(p.ResidentPool().X.Row(best), p.ResidentPool().H.Row(best), ph); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm scratch, eigen buffers, factor storage, task pools
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state ROUND step allocates %.1f objects per candidate at 4 workers", allocs)
	}
}

// BenchmarkRoundFast measures a warm RoundFast at n=8192, d=64, c=9
// Fisher blocks, b=8; TestRoundFastWarmBytes pins its bytes per call.
func BenchmarkRoundFast(b *testing.B) {
	p, z := roundFastBytesProblem()
	if _, err := RoundFast(p, z, 8, RoundOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RoundFast(p, z, 8, RoundOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func roundFastBytesProblem() (*Problem, []float64) {
	p := testProblem(5, 50, 8192, 64, 10)
	z := make([]float64, p.N())
	mat.Fill(z, 8/float64(p.N()))
	return p, z
}

// TestRoundFastWarmBytes pins what a warm RoundFast allocates: the pooled
// state keeps its tile-sized Scores scratch and builds the (Σ⋄)_k^{-1/2}
// transforms and eigenbases in its own storage, so only the result
// history is new (about 1.3 KB per call on amd64). The bound, 1.7 MB, is
// what the call allocated before the Scores sweep buffer stopped being
// pooled; it allocated 3.7 MB while the state dropped that buffer and
// built its transforms through mat.SPDFuncs. The average runs over 16
// calls, so one call that rebuilds its scratch from nothing (4.4 MB, as
// the first call does) cannot carry it over the bound.
func TestRoundFastWarmBytes(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p, z := roundFastBytesProblem()
	run := func() {
		if _, err := RoundFast(p, z, 8, RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm RoundFast allocates %.0f bytes per call", perOp)
	if perOp > 1.7e6 {
		t.Fatalf("warm RoundFast allocates %.0f bytes per call, want ≤ 1.7 MB", perOp)
	}
}

// TestSolveBlockZeroAllocMulticore pins the integrated RELAX block solve:
// a full krylov.SolveBlockInto sweep driven by the real Σz block operator
// (multi-RHS Lemma-2 matvec + labeled term) and the block preconditioner,
// with four workers engaged, allocates nothing once the workspace and
// factor storage are warm. This is the per-iteration hot path of the
// block-CG RELAX loop.
func TestSolveBlockZeroAllocMulticore(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	p := testProblem(29, 15, 2000, 24, 6)
	z := make([]float64, p.N())
	mat.Fill(z, 1/float64(p.N()))
	ws := mat.NewWorkspace()
	bp := NewBlockPreconditionerWS()
	sig, err := p.sigmaBlocksInto(ws, nil, z)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Update(sig); err != nil {
		t.Fatal(err)
	}
	const s = 5
	bT := mat.NewDense(s, p.Ed())
	rnd.New(7).Rademacher(bT.Data) // independent probe columns, staggered convergence
	xT := mat.NewDense(s, p.Ed())
	sigMV := krylov.BlockOp(p.sigmaMatVecBlock(ws, solo{}, z))
	precond := krylov.BlockOp(bp.ApplyBlock)
	opt := krylov.Options{Tol: 0.1, MaxIter: 60, Workspace: ws}
	var results []krylov.Result
	sweep := func() {
		results = krylov.SolveBlockInto(context.Background(), sigMV, precond, bT, xT, results, opt)
	}
	sweep() // warm
	if allocs := testing.AllocsPerRun(15, sweep); allocs != 0 {
		t.Fatalf("warm block solve allocates %.1f objects per sweep at 4 workers", allocs)
	}
}

// TestBlockPreconditionerWSZeroAllocWarm pins the RELAX preconditioner
// rebuild: refactoring the Σz blocks into the persistent factor storage
// and applying the preconditioner allocates nothing once warm, even with
// the worker pool engaged.
func TestBlockPreconditionerWSZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	p := testProblem(23, 15, 600, 16, 5)
	z := make([]float64, p.N())
	mat.Fill(z, 1/float64(p.N()))
	ws := mat.NewWorkspace()
	var blocks []*mat.Dense
	bp := NewBlockPreconditionerWS()
	v := make([]float64, p.Ed())
	dst := make([]float64, p.Ed())
	mat.Fill(v, 1)
	iter := func() {
		var err error
		if blocks, err = p.sigmaBlocksInto(ws, blocks, z); err != nil {
			t.Fatal(err)
		}
		if err := bp.Update(blocks); err != nil {
			t.Fatal(err)
		}
		bp.Apply(dst, v)
	}
	iter() // warm
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("preconditioner rebuild allocates %.1f objects per iteration", allocs)
	}
}

// TestRelaxGroupIterationsZeroAlloc pins the merged RELAX loop: running
// through the Collective interface, a warm RelaxFast with four
// mirror-descent iterations allocates exactly as much as one with a
// single iteration, so every iteration — collectives included — is
// allocation-free. Each single-rank collective is pinned at 0 allocs/op
// on its own.
func TestRelaxGroupIterationsZeroAlloc(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	p := testProblem(37, 15, 600, 16, 4)
	relax := func(iters int) func() {
		return func() {
			o := RelaxOptions{FixedIterations: iters, Seed: 2, Probes: 4}
			if _, err := RelaxFast(context.Background(), p, 5, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each measurement starts right after a collection. A collection
	// inside a window ages every parallel.FreeList (weak handles, the
	// re-armed sentinel, scratch rebuilt on the next Get), which is
	// allocation the RELAX iterations do not cause; where it lands depends
	// on the garbage earlier tests left and on the host's load.
	runtime.GC()
	one := testing.AllocsPerRun(5, relax(1))
	runtime.GC()
	four := testing.AllocsPerRun(5, relax(4))
	if one != four {
		t.Fatalf("RelaxFast allocates %.0f objects at 1 iteration but %.0f at 4", one, four)
	}

	var cm Collective = solo{}
	ctx := context.Background()
	buf := make([]float64, 16)
	for name, op := range map[string]func(){
		"Bcast":           func() { cm.Bcast(0, buf) },
		"Allreduce":       func() { cm.Allreduce(buf) },
		"AllreduceScalar": func() { buf[0] = cm.AllreduceScalar(buf[1], mpi.Max) },
		"AllreduceMaxLoc": func() { buf[0], _, _ = cm.AllreduceMaxLoc(buf[1], 3) },
		"Allgatherv":      func() { buf = cm.Allgatherv(buf) },
		"Cancelled":       func() { _ = cm.Cancelled(ctx, nil) },
		"Err":             func() { _ = cm.Err() },
		"SolverContext":   func() { ctx = cm.SolverContext(ctx) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("single-rank %s allocates %.1f objects per call", name, allocs)
		}
	}
}
