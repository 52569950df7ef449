package distfiral

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mpi"
)

// setShard is the resident oracle: rank's partition as a hessian.Set view.
func setShard(labeled, pool *hessian.Set, size, rank int) *Shard {
	lo, hi := mpi.Partition(pool.N(), size, rank)
	return &Shard{
		Labeled:    labeled,
		PoolLocal:  hessian.NewSet(pool.X.RowSlice(lo, hi), pool.H.RowSlice(lo, hi)),
		PoolOffset: lo,
		PoolTotal:  pool.N(),
	}
}

// TestStreamShardMatchesResidentShard runs the full distributed selection
// (RELAX + ROUND over the simulated MPI ranks) twice — once with per-rank
// resident Set shards, once with MakeStreamShard views over one shared
// in-memory source — and requires identical selections.
// The streaming shards use a small block size so every rank crosses block
// boundaries inside its partition.
func TestStreamShardMatchesResidentShard(t *testing.T) {
	labeled, pool := testSets(31, 20, 151, 8, 3)
	const ranks, b = 3, 5
	opts := firal.RelaxOptions{FixedIterations: 3, Seed: 2}

	run := func(mk func(rank int) *Shard) [][]int {
		selected := make([][]int, ranks)
		runRanks(t, ranks, func(c *mpi.Comm) {
			sel, _, _, err := Select(context.Background(), c, mk(c.Rank()), b, 0, opts)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			selected[c.Rank()] = sel
		})
		return selected
	}

	resident := run(func(rank int) *Shard {
		return setShard(labeled, pool, ranks, rank)
	})
	src := dataset.NewMatrixSource(pool.X)
	streamed := run(func(rank int) *Shard {
		return MakeStreamShard(labeled, src, pool.H, 16, ranks, rank)
	})

	for r := 0; r < ranks; r++ {
		if len(streamed[r]) != b || len(resident[r]) != b {
			t.Fatalf("rank %d: selected %d streamed / %d resident, want %d", r, len(streamed[r]), len(resident[r]), b)
		}
		for i := range resident[r] {
			if streamed[r][i] != resident[r][i] {
				t.Fatalf("rank %d selection %d: streamed %d, resident %d", r, i, streamed[r][i], resident[r][i])
			}
		}
	}
	// All ranks agree with each other too.
	for r := 1; r < ranks; r++ {
		for i := range streamed[0] {
			if streamed[r][i] != streamed[0][i] {
				t.Fatalf("streamed ranks disagree at %d: %v vs %v", i, streamed[r], streamed[0])
			}
		}
	}
}

// TestMoreRanksThanPoolRows pins the empty-partition path: with more
// ranks than pool rows, some ranks hold zero-row shards whose kernel
// outputs must be exact zeros in every allreduce (regression: the
// single-block kernel fast path used to leave stale scratch in dst at
// n=0, corrupting Σz·p on all ranks from the second CG iteration on).
// The distributed selection must complete and match the serial solver on
// both resident and streamed shards.
func TestMoreRanksThanPoolRows(t *testing.T) {
	labeled, pool := testSets(35, 20, 2, 6, 3)
	const ranks, b = 3, 2
	opts := firal.RelaxOptions{FixedIterations: 3, Seed: 6}

	want, err := firal.SelectApprox(context.Background(), firal.NewProblem(labeled, pool), b,
		firal.Options{Relax: opts})
	if err != nil {
		t.Fatal(err)
	}

	run := func(name string, mk func(rank int) *Shard) {
		selected := make([][]int, ranks)
		errs := make([]error, ranks)
		runRanks(t, ranks, func(c *mpi.Comm) {
			selected[c.Rank()], _, _, errs[c.Rank()] = Select(context.Background(), c, mk(c.Rank()), b, 0, opts)
		})
		for r := 0; r < ranks; r++ {
			if errs[r] != nil {
				t.Fatalf("%s rank %d: %v", name, r, errs[r])
			}
			if len(selected[r]) != len(want.Selected) {
				t.Fatalf("%s rank %d: selected %v, serial %v", name, r, selected[r], want.Selected)
			}
			for i := range want.Selected {
				if selected[r][i] != want.Selected[i] {
					t.Fatalf("%s rank %d selection %d: %d, serial %d", name, r, i, selected[r][i], want.Selected[i])
				}
			}
		}
	}
	run("resident", func(rank int) *Shard { return setShard(labeled, pool, ranks, rank) })
	src := dataset.NewMatrixSource(pool.X)
	run("streamed", func(rank int) *Shard { return MakeStreamShard(labeled, src, pool.H, 4, ranks, rank) })
}

// TestStreamShardExactRequiresResidentPool pins the distfiral side of the
// residency contract: a stream shard cut from a streaming-only source (no
// Resident fast path — what -shards serves from disk) carries a pool that
// the exact Algorithm-1 solvers must refuse with the typed
// firal.ErrResidentPool on every rank, without decoding a row; the
// distributed Approx path on the very same shards must still run.
func TestStreamShardExactRequiresResidentPool(t *testing.T) {
	labeled, pool := testSets(33, 20, 97, 6, 3)
	counting := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
	const ranks = 3
	shards := make([]*Shard, ranks)
	for r := 0; r < ranks; r++ {
		shards[r] = MakeStreamShard(labeled, counting, pool.H, 16, ranks, r)
	}

	// Exact solvers need no communicator; every rank's shard must refuse
	// identically, before a single block is decoded.
	for r, sh := range shards {
		p := firal.NewProblem(sh.Labeled, sh.PoolLocal)
		if _, err := firal.SelectExact(context.Background(), p, 3, firal.Options{}); !errors.Is(err, firal.ErrResidentPool) {
			t.Fatalf("rank %d: exact select on stream shard: err = %v, want firal.ErrResidentPool", r, err)
		}
		if _, err := firal.RelaxExact(context.Background(), p, 3, firal.RelaxOptions{}); !errors.Is(err, firal.ErrResidentPool) {
			t.Fatalf("rank %d: exact RELAX on stream shard: err = %v, want firal.ErrResidentPool", r, err)
		}
	}
	if counting.Reads() != 0 {
		t.Fatalf("exact solvers decoded %d blocks from the stream shards before refusing", counting.Reads())
	}

	// The distributed Approx path must still run on the very same shards.
	selected := make([][]int, ranks)
	errsSel := make([]error, ranks)
	runRanks(t, ranks, func(c *mpi.Comm) {
		selected[c.Rank()], _, _, errsSel[c.Rank()] = Select(context.Background(), c, shards[c.Rank()], 3, 0,
			firal.RelaxOptions{FixedIterations: 2, Seed: 4})
	})
	for r := 0; r < ranks; r++ {
		if errsSel[r] != nil {
			t.Fatalf("rank %d: approx select on the same stream shard failed: %v", r, errsSel[r])
		}
		if len(selected[r]) != 3 {
			t.Fatalf("rank %d: approx select picked %d points, want 3", r, len(selected[r]))
		}
	}
}
