package firal

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/timing"
)

// packPoolShard writes the problem's pool features to a float32 shard —
// the production out-of-core representation the prefetcher exists to
// accelerate — and opens it.
func packPoolShard(t *testing.T, p *Problem) *dataset.ShardSource {
	t.Helper()
	pool := p.ResidentPool()
	path := filepath.Join(t.TempDir(), "pool.shard")
	w, err := dataset.CreateShard(path, pool.D())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(pool.X); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSelectApproxPrefetchBitIdentical is the end-to-end transparency
// property: over the same shard-backed pool, the full Approx-FIRAL
// selection (RELAX mirror descent + block CG, then ROUND) with block
// read-ahead picks the identical batch — and RELAX lands on bit-for-bit
// identical simplex weights — as the synchronous decode path. This is
// the guarantee that lets prefetch default on everywhere: it changes
// when blocks are decoded, never what is computed from them.
func TestSelectApproxPrefetchBitIdentical(t *testing.T) {
	p := testProblem(43, 10, 500, 8, 3)
	pool := p.ResidentPool()
	const bs = 64 // 500/64: ragged blocks

	syncSrc := packPoolShard(t, p)
	defer syncSrc.Close()
	preSrc := packPoolShard(t, p)
	pre := dataset.NewPrefetchSource(context.Background(), preSrc)
	defer pre.Close()

	opts := Options{Relax: RelaxOptions{FixedIterations: 3, Probes: 6, CGTol: 0.1, Seed: 9}}
	want, err := SelectApprox(context.Background(), NewProblem(p.Labeled, hessian.NewStream(syncSrc, pool.H, bs)), 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectApprox(context.Background(), NewProblem(p.Labeled, hessian.NewStream(pre, pool.H, bs)), 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("prefetched selection picked %d points, sync %d", len(got.Selected), len(want.Selected))
	}
	for i := range want.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("selection %d: prefetched %d, sync %d", i, got.Selected[i], want.Selected[i])
		}
	}
	if got.Relax.Iterations != want.Relax.Iterations || got.Relax.CGIterations != want.Relax.CGIterations {
		t.Fatalf("prefetched solve ran %d/%d iterations, sync %d/%d",
			got.Relax.Iterations, got.Relax.CGIterations, want.Relax.Iterations, want.Relax.CGIterations)
	}
	for i := range want.Relax.Z {
		if math.Float64bits(got.Relax.Z[i]) != math.Float64bits(want.Relax.Z[i]) {
			t.Fatalf("z[%d]: prefetched %x, sync %x — RELAX weights must be bit-identical",
				i, math.Float64bits(got.Relax.Z[i]), math.Float64bits(want.Relax.Z[i]))
		}
	}
}

// TestRelaxPrefetchDecodeSweepsUnchanged pins the cost side of the
// transparency claim with a CountingSource BELOW the prefetcher (every
// asynchronous read still lands on the counted ReadRows): block
// read-ahead reorders decode timing but performs exactly the decode
// traffic of the synchronous path — same ReadRows calls, same rows, no
// discarded speculation — because the forward-sweep prediction never
// reads a window the consumer doesn't then use.
func TestRelaxPrefetchDecodeSweepsUnchanged(t *testing.T) {
	p := testProblem(47, 12, 500, 8, 4)
	pool := p.ResidentPool()
	const bs = 64
	opts := RelaxOptions{FixedIterations: 3, Probes: 8, Seed: 5}

	syncCount := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
	if _, err := RelaxFast(context.Background(), NewProblem(p.Labeled, hessian.NewStream(syncCount, pool.H, bs)), 6, opts); err != nil {
		t.Fatal(err)
	}

	preCount := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
	pre := dataset.NewPrefetchSource(context.Background(), preCount)
	defer pre.Close()
	if _, err := RelaxFast(context.Background(), NewProblem(p.Labeled, hessian.NewStream(pre, pool.H, bs)), 6, opts); err != nil {
		t.Fatal(err)
	}

	if preCount.RowsRead() != syncCount.RowsRead() || preCount.Reads() != syncCount.Reads() {
		t.Fatalf("prefetched RELAX decoded %d rows in %d reads; sync %d rows in %d reads — read-ahead must not add decode traffic",
			preCount.RowsRead(), preCount.Reads(), syncCount.RowsRead(), syncCount.Reads())
	}
	if syncCount.RowsRead()%int64(p.N()) != 0 {
		t.Fatalf("pool read %d rows, not a whole number of %d-row sweeps", syncCount.RowsRead(), p.N())
	}
	t.Logf("both paths: %.0f sweeps in %d reads", preCount.Sweeps(), preCount.Reads())
}

// TestRelaxIterationDecodeSweeps pins the decode traffic of one RELAX
// mirror-descent iteration over a multi-block stream: exactly 3 + k₁ + k₂
// whole sweeps — the Σz blocks, Hp·W and the gradient, plus one per
// lockstep iteration of the two block-CG solves. Each solve starts from
// zero, so no sweep computes an initial residual. At one probe the
// reported CG iterations are k₁ + k₂; with an unreachable tolerance each
// solve runs its full cap.
func TestRelaxIterationDecodeSweeps(t *testing.T) {
	p := testProblem(53, 12, 500, 8, 4)
	pool := p.ResidentPool()
	const bs = 64
	for _, tc := range []struct {
		name string
		opts RelaxOptions
		cg   func(r *RelaxResult) int // k₁ + k₂
	}{
		{"one probe", RelaxOptions{FixedIterations: 1, Probes: 1, CGTol: 0.1, Seed: 5},
			func(r *RelaxResult) int { return r.CGIterations }},
		{"capped block", RelaxOptions{FixedIterations: 1, Probes: 6, CGTol: 1e-300, CGMaxIter: 3, Seed: 5},
			func(*RelaxResult) int { return 2 * 3 }},
	} {
		counting := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
		r, err := RelaxFast(context.Background(), NewProblem(p.Labeled, hessian.NewStream(counting, pool.H, bs)), 6, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations != 1 || r.CGIterations == 0 {
			t.Fatalf("%s: %d iterations, %d CG iterations", tc.name, r.Iterations, r.CGIterations)
		}
		want := int64(3+tc.cg(r)) * int64(p.N())
		if counting.RowsRead() != want {
			t.Fatalf("%s: one RELAX iteration read %d rows (%.2f sweeps), want %d (3 + %d CG sweeps)",
				tc.name, counting.RowsRead(), counting.Sweeps(), want, tc.cg(r))
		}
	}
}

// TestScoresPrefetchBitIdentical pins the ROUND rescoring pass: scores
// through a prefetched stream match the synchronous stream bit for bit
// (same block partition, same arithmetic, only decode timing differs).
func TestScoresPrefetchBitIdentical(t *testing.T) {
	p := testProblem(41, 12, 397, 9, 4)
	pool := p.ResidentPool()
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	st, err := testRoundState(p, z, 5, p.DefaultEta(), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	const bs = 48
	sync := hessian.NewStream(dataset.NewCountingSource(dataset.NewMatrixSource(pool.X)), pool.H, bs)
	want := make([]float64, p.N())
	st.Scores(sync, want)

	pre := dataset.NewPrefetchSource(context.Background(),
		dataset.NewCountingSource(dataset.NewMatrixSource(pool.X)))
	defer pre.Close()
	got := make([]float64, p.N())
	st.Scores(hessian.NewStream(pre, pool.H, bs), got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score %d = %x prefetched, %x sync", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
