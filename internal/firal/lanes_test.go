package firal

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/timing"
)

// Many-block pools: ten blocks of 64 rows, the last one ragged, written
// as two mmap'd float32 shards whose seam falls inside block 4. Ten
// blocks give W lanes for W ≤ 4, so from two workers on every sweep runs
// on parallel.ForBlocks.
const (
	laneBlock = 64
	laneRows  = 9*laneBlock + 23
	laneSeam  = 4*laneBlock + 17
)

// rowTally counts how many times each row of the wrapped source is
// decoded; it hides the Resident and BlockLender fast paths.
type rowTally struct {
	dataset.PoolSource
	reads []atomic.Int32
}

func (s *rowTally) ReadRows(lo, hi int, dst *mat.Dense) error {
	for i := lo; i < hi; i++ {
		s.reads[i].Add(1)
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// shardProblem serves p's pool from two mmap'd shards split at laneSeam,
// through a rowTally and, when prefetch is set, a PrefetchSource, in
// blocks of laneBlock rows.
func shardProblem(t *testing.T, p *Problem, prefetch bool) (*Problem, *rowTally) {
	t.Helper()
	pool := p.ResidentPool()
	dir := t.TempDir()
	var paths []string
	for i, part := range []*mat.Dense{pool.X.RowSlice(0, laneSeam), pool.X.RowSlice(laneSeam, pool.X.Rows)} {
		path := filepath.Join(dir, fmt.Sprintf("pool-%d.shard", i))
		sw, err := dataset.CreateShard(path, pool.X.Cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AppendBlock(part); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	shards, err := dataset.OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	tally := &rowTally{PoolSource: shards, reads: make([]atomic.Int32, shards.NumRows())}
	var src dataset.PoolSource = tally
	if prefetch {
		src = dataset.NewPrefetchSource(context.Background(), tally, laneBlock)
	}
	t.Cleanup(func() { src.Close() })
	return NewProblem(p.Labeled, hessian.NewStream(src, pool.H, laneBlock)), tally
}

// TestScoresManyBlocksBitsAndTraffic rescores a ten-block shard pool,
// with and without prefetch, at one to four workers: every score must
// have the one-worker bits, and every pass must decode each row once.
func TestScoresManyBlocksBitsAndTraffic(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	p := testProblem(71, 12, laneRows, 16, 3)
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	st, err := testRoundState(p, z, 5, p.DefaultEta(), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, prefetch := range []bool{false, true} {
		sp, tally := shardProblem(t, p, prefetch)
		var one []float64
		for nw := 1; nw <= 4; nw++ {
			parallel.SetMaxWorkers(nw)
			got := make([]float64, sp.N())
			st.Scores(sp.Pool, got)
			name := fmt.Sprintf("prefetch=%v workers=%d", prefetch, nw)
			for i := range tally.reads {
				if n := tally.reads[i].Swap(0); n != 1 {
					t.Fatalf("%s: row %d decoded %d times in one pass", name, i, n)
				}
			}
			if nw == 1 {
				one = got
				continue
			}
			sameBitsOf(t, name+": score", got, one)
		}
	}
}

// TestSelectApproxManyBlocksShards runs a whole Approx-FIRAL selection
// over the ten-block shard pool, with and without prefetch, at one to
// four workers: the weights, selections, ν, objectives and MinEigH must
// have the one-worker bits. Every row must be decoded as many times as
// at one worker, and there as many times as every other unselected row.
func TestSelectApproxManyBlocksShards(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	p := testProblem(72, 20, laneRows, 16, 3)
	o := Options{Relax: RelaxOptions{FixedIterations: 3, Seed: 5, Probes: 6}}
	for _, prefetch := range []bool{false, true} {
		sp, tally := shardProblem(t, p, prefetch)
		var want *Result
		oneReads := make([]int32, sp.N())
		for nw := 1; nw <= 4; nw++ {
			parallel.SetMaxWorkers(nw)
			res, err := SelectApprox(context.Background(), sp, 4, o)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("prefetch=%v workers=%d", prefetch, nw)
			for i := range tally.reads {
				n := tally.reads[i].Swap(0)
				if nw == 1 {
					oneReads[i] = n
				} else if n != oneReads[i] {
					t.Fatalf("%s: row %d decoded %d times, %d at one worker", name, i, n, oneReads[i])
				}
			}
			if nw == 1 {
				// Every sweep reads each row once; a ROUND winner's row
				// is read once more when it is fetched.
				picked := map[int]bool{}
				for _, i := range res.Selected {
					picked[i] = true
				}
				sweeps := int32(-1)
				for i, n := range oneReads {
					if picked[i] {
						continue
					}
					if sweeps < 0 {
						sweeps = n
					} else if n != sweeps {
						t.Fatalf("%s: row %d decoded %d times, other unselected rows %d", name, i, n, sweeps)
					}
				}
				want = res
				continue
			}
			sameBitsOf(t, name+": z", res.Relax.Z, want.Relax.Z)
			sameBitsOf(t, name+": objective", res.Round.Objectives, want.Round.Objectives)
			sameBitsOf(t, name+": ν", res.Round.Nu, want.Round.Nu)
			sameBitsOf(t, name+": MinEigH", []float64{res.Round.MinEigH}, []float64{want.Round.MinEigH})
			if fmt.Sprint(res.Selected) != fmt.Sprint(want.Selected) {
				t.Fatalf("%s: selected %v, one worker %v", name, res.Selected, want.Selected)
			}
		}
	}
}
