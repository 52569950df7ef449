package firal

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hessian"
)

// TestRelaxStreamDecodeCount pins the block-CG decode contract on a
// shard-backed pool: one streamed RELAX solve reads the pool
//
//	sweeps = Σ_t [ k1_t + k2_t + 3 ]
//
// full decodes — one per lockstep CG iteration (k1, k2 are the DEEPEST
// column's iteration counts of the two solves) plus three fixed sweeps
// per mirror-descent iteration (Σz blocks, Hp·W, and the gradient
// accumulation); both solves start from zero, so neither pays a sweep for
// its initial residual. That is bounded by CGIterations + 3·Iterations
// and is a factor ~s below the historical per-column cost of
// CGIterations + (4s+1)·Iterations sweeps, where every probe column paid
// its own decode per CG iteration.
func TestRelaxStreamDecodeCount(t *testing.T) {
	p := testProblem(47, 12, 500, 8, 4)
	pool := p.ResidentPool()

	// Pack the pool into an on-disk float32 shard — the production
	// out-of-core representation — and serve it through a CountingSource,
	// which forces and counts the decode path.
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
	defer src.Close()
	counting := dataset.NewCountingSource(src)
	stream := hessian.NewStream(counting, pool.H, 64) // 500/64: ragged blocks
	sp := NewProblem(p.Labeled, stream)

	const probes = 8
	opts := RelaxOptions{FixedIterations: 3, Probes: probes, Seed: 5}
	res, err := RelaxFast(context.Background(), sp, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CGIterations == 0 {
		t.Fatal("no CG iterations recorded — test exercises nothing")
	}

	n := int64(sp.N())
	if counting.RowsRead()%n != 0 {
		t.Fatalf("pool read %d rows, not a whole number of %d-row sweeps", counting.RowsRead(), n)
	}
	sweeps := int(counting.RowsRead() / n)
	bound := res.CGIterations + 3*res.Iterations
	if sweeps > bound {
		t.Fatalf("streamed RELAX decoded the pool %d times; want ≤ CGIterations + 3·iterations = %d + 3·%d = %d",
			sweeps, res.CGIterations, res.Iterations, bound)
	}
	// The historical per-column path paid one decode per probe column per
	// CG iteration. Require a real amortization factor, not a constant
	// shave.
	perColumn := res.CGIterations + (4*probes+1)*res.Iterations
	if 3*sweeps > perColumn {
		t.Fatalf("streamed RELAX decoded the pool %d times; per-column cost would be %d — expected ≥3× amortization",
			sweeps, perColumn)
	}
	t.Logf("sweeps=%d (CG=%d, T=%d; per-column path would be %d)",
		sweeps, res.CGIterations, res.Iterations, perColumn)
}

// TestRelaxStreamMatchesResident pins the numerics next to the decode
// count: the block-CG streamed solve returns the same z⋄ as the resident
// solver (block accumulation reorders float sums, hence the tolerance;
// the shard's float32 feature rounding is avoided by streaming the exact
// matrix).
func TestRelaxStreamMatchesResident(t *testing.T) {
	p := testProblem(47, 12, 500, 8, 4)
	opts := RelaxOptions{FixedIterations: 3, Probes: 8, Seed: 5}
	want, err := RelaxFast(context.Background(), p, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := p.ResidentPool()
	stream := hessian.NewStream(dataset.NewCountingSource(dataset.NewMatrixSource(pool.X)), pool.H, 64)
	got, err := RelaxFast(context.Background(), NewProblem(p.Labeled, stream), 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.CGIterations != want.CGIterations {
		t.Fatalf("streamed solve ran %d/%d iterations, resident %d/%d",
			got.Iterations, got.CGIterations, want.Iterations, want.CGIterations)
	}
	for i := range want.Z {
		if math.Abs(got.Z[i]-want.Z[i]) > 1e-10*(1+math.Abs(want.Z[i])) {
			t.Fatalf("z[%d]: streamed %g, resident %g", i, got.Z[i], want.Z[i])
		}
	}
}
