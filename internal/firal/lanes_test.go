package firal

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
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
	tally := newTally(openShards(t, p.ResidentPool().X, laneSeam))
	var src dataset.PoolSource = tally
	if prefetch {
		src = dataset.NewPrefetchSource(context.Background(), tally)
		t.Cleanup(func() { src.Close() })
	}
	return NewProblem(p.Labeled, hessian.NewStream(src, p.ResidentPool().H, laneBlock)), tally
}

func newTally(src dataset.PoolSource) *rowTally {
	return &rowTally{PoolSource: src, reads: make([]atomic.Int32, src.NumRows())}
}

// openShards writes x as two mmap'd float32 shards split at row seam and
// opens them as one source, closed when the test ends.
func openShards(t *testing.T, x *mat.Dense, seam int) dataset.PoolSource {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, part := range []*mat.Dense{x.RowSlice(0, seam), x.RowSlice(seam, x.Rows)} {
		path := filepath.Join(dir, fmt.Sprintf("pool-%d.shard", i))
		sw, err := dataset.CreateShard(path, x.Cols)
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
	t.Cleanup(func() { shards.Close() })
	return shards
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

// Windowed pools: four blocks of 1024 rows at d = 64, so a lane that
// decodes its own blocks reads each one in two 512-row windows; the last
// block holds 611 rows, and the shard seam falls inside block 1's second
// window.
const (
	winBlock = 1024
	winRows  = 3*winBlock + 611
	winSeam  = winBlock + 512 + 100
)

// TestScoresLaneDecodeWindows rescores the windowed shard pool, with and
// without prefetch, at one to four workers; from two workers on, two
// lanes decode their own blocks window by window. Every score must have
// the one-worker bits, every pass must decode each row once, and a warm
// pass must not allocate.
func TestScoresLaneDecodeWindows(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	p := testProblem(73, 12, winRows, 64, 3)
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	st, err := testRoundState(p, z, 5, p.DefaultEta(), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	shards := openShards(t, p.ResidentPool().X, winSeam)
	for _, prefetch := range []bool{false, true} {
		tally := newTally(shards)
		var src dataset.PoolSource = tally
		if prefetch {
			src = dataset.NewPrefetchSource(context.Background(), tally)
		}
		pool := hessian.NewStream(src, p.ResidentPool().H, winBlock)
		got := make([]float64, winRows)
		var one []float64
		for nw := 1; nw <= 4; nw++ {
			parallel.SetMaxWorkers(nw)
			name := fmt.Sprintf("prefetch=%v workers=%d", prefetch, nw)
			st.Scores(pool, got)
			tally.times(t, name, 1)
			if nw == 1 {
				one = slices.Clone(got)
			} else {
				sameBitsOf(t, name+": score", got, one)
			}
			if mat.RaceEnabled {
				continue
			}
			// A collection inside the window would age the parallel.FreeLists
			// and rebuild their scratch: start right after one.
			runtime.GC()
			if allocs := testing.AllocsPerRun(3, func() { st.Scores(pool, got) }); allocs != 0 {
				t.Fatalf("%s: a warm pass allocates %.1f objects", name, allocs)
			}
			tally.times(t, name+": warm passes", 4)
		}
		if err := pool.Err(); err != nil {
			t.Fatal(err)
		}
		if prefetch {
			src.Close()
		}
	}
}

// times fails t unless every row was decoded exactly n times since the
// last call, and resets the tally.
func (s *rowTally) times(t *testing.T, what string, n int32) {
	t.Helper()
	for i := range s.reads {
		if got := s.reads[i].Swap(0); got != n {
			t.Fatalf("%s: row %d decoded %d times, want %d", what, i, got, n)
		}
	}
}

// failFrom fails every read that ends past row from.
type failFrom struct {
	dataset.PoolSource
	from int
}

var errWindowRead = errors.New("injected window read failure")

func (s *failFrom) ReadRows(lo, hi int, dst *mat.Dense) error {
	if hi > s.from {
		return errWindowRead
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// TestSelectApproxLaneWindowReadFailure fails the reads of the last
// block's second window at two workers, where two lanes decode their own
// blocks window by window: the selection must fail with ErrPoolRead over
// the source's error.
func TestSelectApproxLaneWindowReadFailure(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	p := testProblem(74, 20, winRows, 64, 2)
	src := &failFrom{PoolSource: openShards(t, p.ResidentPool().X, winSeam), from: 3*winBlock + 512}
	sp := NewProblem(p.Labeled, hessian.NewStream(src, p.ResidentPool().H, winBlock))
	o := Options{Relax: RelaxOptions{FixedIterations: 2, Seed: 5, Probes: 4}}
	res, err := SelectApprox(context.Background(), sp, 3, o)
	if !errors.Is(err, hessian.ErrPoolRead) || !errors.Is(err, errWindowRead) {
		t.Fatalf("got %v (result %v), want a pool read error over the injected one", err, res)
	}
}
