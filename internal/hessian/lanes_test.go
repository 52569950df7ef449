package hessian

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// rowTally counts how many times each row of the wrapped source is
// decoded. Like CountingSource it hides the Resident and BlockLender fast
// paths, so every block a sweep uses goes through ReadRows.
type rowTally struct {
	dataset.PoolSource
	reads []atomic.Int32
}

func newRowTally(src dataset.PoolSource) *rowTally {
	return &rowTally{PoolSource: src, reads: make([]atomic.Int32, src.NumRows())}
}

func (s *rowTally) ReadRows(lo, hi int, dst *mat.Dense) error {
	for i := lo; i < hi; i++ {
		s.reads[i].Add(1)
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// once fails t unless every row was decoded exactly once since the last
// call, and resets the tally.
func (s *rowTally) once(t *testing.T, what string) {
	t.Helper()
	s.times(t, what, 1)
}

// times fails t unless every row was decoded exactly sweeps times since
// the last call, and resets the tally.
func (s *rowTally) times(t *testing.T, what string, sweeps int32) {
	t.Helper()
	for i := range s.reads {
		if n := s.reads[i].Swap(0); n != sweeps {
			t.Fatalf("%s: row %d decoded %d times in %d sweeps", what, i, n, sweeps)
		}
	}
}

// shardPool writes x as two mmap'd float32 shards split at row seam and
// opens them as one source.
func shardPool(t *testing.T, x *mat.Dense, seam int) *dataset.ShardSource {
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
	src, err := dataset.OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestBlockSweepsManyBlocksBitsAndTraffic runs the three blocked kernels
// over a pool of ten blocks (the last one ragged, a shard seam inside
// block 4) served from mmap'd shards, with and without the prefetch
// layer, at one to four workers. Ten blocks give W lanes for every
// W ≤ 4, so from two workers on every sweep runs on parallel.ForBlocks, one
// block per lane at a time: each result must have the one-worker bits,
// and each sweep must decode every row exactly once.
func TestBlockSweepsManyBlocksBitsAndTraffic(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	const bs, n, seam = 64, 9*64 + 23, 4*64 + 17
	for _, sh := range []struct{ d, c, s int }{{64, 1, 10}, {13, 3, 4}} {
		set, w := streamTestData(int64(sh.d+sh.c), n, sh.d, sh.c)
		shards := shardPool(t, set.X, seam)
		vt, _ := blockVectors(set.Ed(), sh.s, 61)
		ut, _ := blockVectors(set.Ed(), sh.s, 62)
		for _, prefetch := range []bool{false, true} {
			tally := newRowTally(shards)
			var src dataset.PoolSource = tally
			if prefetch {
				pf := dataset.NewPrefetchSource(context.Background(), tally)
				defer pf.Close()
				src = pf
			}
			pool := NewStream(src, set.H, bs)
			ws := mat.NewWorkspace()
			var oneMV *mat.Dense
			var oneQ []float64
			var oneG []*mat.Dense
			for nw := 1; nw <= 4; nw++ {
				parallel.SetMaxWorkers(nw)
				if nb := (n + bs - 1) / bs; parallel.BlockLanes(nb) != nw {
					t.Fatalf("%d blocks at %d workers run on %d lanes", nb, nw, parallel.BlockLanes(nb))
				}
				name := fmt.Sprintf("d=%d c=%d prefetch=%v workers=%d", sh.d, sh.c, prefetch, nw)
				mv := mat.NewDense(sh.s, set.Ed())
				MatVecBlockWS(ws, pool, mv, vt, w)
				tally.once(t, name+": MatVecBlockWS")
				q := make([]float64, n)
				QuadAccumBlockWS(ws, pool, q, ut, vt, -0.5)
				tally.once(t, name+": QuadAccumBlockWS")
				g := BlockDiagSumInto(ws, pool, nil, w)
				tally.once(t, name+": BlockDiagSumInto")
				if err := pool.Err(); err != nil {
					t.Fatal(err)
				}
				if nw == 1 {
					oneMV, oneQ, oneG = mv, q, g
					continue
				}
				sameBits(t, name+": MatVecBlockWS", mv.Data, oneMV.Data)
				sameBits(t, name+": QuadAccumBlockWS", q, oneQ)
				for k := range g {
					sameBits(t, fmt.Sprintf("%s: BlockDiagSumInto block %d", name, k), g[k].Data, oneG[k].Data)
				}
			}
		}
	}
}

// sameBits fails t unless got and want hold the same bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, one worker %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// Windowed pools: four blocks of 1024 rows at d = 64, so a lane that
// decodes its own blocks reads each one in two 512-row windows
// (subBlockRows); the last block holds 611 rows (a ragged window of 99,
// and 611 % 4 = 3 leaves a Gram tail), and the shard seam falls inside
// block 1's second window.
const (
	winBlock = 1024
	winRows  = 3*winBlock + 611
	winSeam  = winBlock + 512 + 100
	winD     = 64
)

// TestLaneDecodeWindowsBitsTrafficAllocs runs the three blocked kernels
// over the windowed shard pool, with and without the prefetch layer, at
// one to four workers: MatVecBlockWS at c = 1 and 3 (window by window)
// and 16 (the packed Γᵀ·X path, whole blocks), QuadAccumBlockWS and
// BlockDiagSumInto. From two workers on the sweeps run on two lanes that
// decode their own blocks. Every result must have the bits of the
// synchronous pool at one worker, every sweep must decode each row
// exactly once, and a warm sweep must not allocate. Both prefetch
// variants of a c share one workspace and output set, so the second
// starts warm (the 386 leg runs this test without SIMD kernels).
func TestLaneDecodeWindowsBitsTrafficAllocs(t *testing.T) {
	if got := subBlockRows(winD, winBlock); got != 512 {
		t.Fatalf("subBlockRows(%d, %d) = %d, want 512", winD, winBlock, got)
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	const s = 3
	for _, c := range []int{1, 3, 16} {
		set, w := streamTestData(int64(c), winRows, winD, c)
		shards := shardPool(t, set.X, winSeam)
		vt, _ := blockVectors(set.Ed(), s, 71)
		ut, _ := blockVectors(set.Ed(), s, 72)
		ws := mat.NewWorkspace()
		mv := mat.NewDense(s, set.Ed())
		q := make([]float64, winRows)
		var g []*mat.Dense
		var oneMV, oneQ []float64
		var oneG [][]float64
		for _, prefetch := range []bool{false, true} {
			tally := newRowTally(shards)
			var src dataset.PoolSource = tally
			if prefetch {
				src = dataset.NewPrefetchSource(context.Background(), tally)
			}
			pool := NewStream(src, set.H, winBlock)
			for nw := 1; nw <= 4; nw++ {
				parallel.SetMaxWorkers(nw)
				name := fmt.Sprintf("c=%d prefetch=%v workers=%d", c, prefetch, nw)
				MatVecBlockWS(ws, pool, mv, vt, w)
				tally.once(t, name+": MatVecBlockWS")
				clear(q)
				QuadAccumBlockWS(ws, pool, q, ut, vt, -0.5)
				tally.once(t, name+": QuadAccumBlockWS")
				g = BlockDiagSumInto(ws, pool, g, w)
				tally.once(t, name+": BlockDiagSumInto")
				if err := pool.Err(); err != nil {
					t.Fatal(err)
				}
				if oneMV == nil {
					oneMV, oneQ = slices.Clone(mv.Data), slices.Clone(q)
					for _, b := range g {
						oneG = append(oneG, slices.Clone(b.Data))
					}
				} else {
					sameBits(t, name+": MatVecBlockWS", mv.Data, oneMV)
					sameBits(t, name+": QuadAccumBlockWS", q, oneQ)
					for k := range g {
						sameBits(t, fmt.Sprintf("%s: BlockDiagSumInto block %d", name, k), g[k].Data, oneG[k])
					}
				}
				if mat.RaceEnabled {
					continue
				}
				// The packed Γᵀ·X path takes GEMM scratch per concurrent
				// call, so it is warm only once its lanes have overlapped;
				// on a loaded host the first sweeps may run them one after
				// the other. Give the overlap more chances.
				if mat.UseBlocked(c, winD, winBlock) && nw > 1 {
					const warm = 8
					for range warm {
						MatVecBlockWS(ws, pool, mv, vt, w)
					}
					tally.times(t, name+": packed warm-up", warm)
				}
				// A collection inside the window would age the parallel.FreeLists
				// and rebuild their scratch: start right after one.
				runtime.GC()
				if allocs := testing.AllocsPerRun(3, func() {
					MatVecBlockWS(ws, pool, mv, vt, w)
					QuadAccumBlockWS(ws, pool, q, ut, vt, -0.5)
					BlockDiagSumInto(ws, pool, g, w)
				}); allocs != 0 {
					t.Fatalf("%s: warm sweeps allocate %.1f objects", name, allocs)
				}
				tally.times(t, name+": warm sweeps", 3*4)
			}
			if prefetch {
				src.Close()
			}
		}
	}
}

// failAfter fails every read that ends past row from.
type failAfter struct {
	dataset.PoolSource
	from int
}

var errWindow = errors.New("injected window read failure")

func (s *failAfter) ReadRows(lo, hi int, dst *mat.Dense) error {
	if hi > s.from {
		return errWindow
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// TestLaneDecodeWindowReadFailure fails the reads from the second window
// of the last block on, at two workers, where the lanes decode their own
// blocks: every kernel must keep the failure as ErrPoolRead over the
// source's error.
func TestLaneDecodeWindowReadFailure(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	set, w := streamTestData(5, winRows, winD, 2)
	shards := shardPool(t, set.X, winSeam)
	vt, _ := blockVectors(set.Ed(), 2, 73)
	for name, sweep := range map[string]func(p Pool){
		"MatVecBlockWS": func(p Pool) { MatVecBlockWS(mat.NewWorkspace(), p, mat.NewDense(2, set.Ed()), vt, w) },
		"QuadAccumBlockWS": func(p Pool) {
			QuadAccumBlockWS(mat.NewWorkspace(), p, make([]float64, winRows), vt, vt, 1)
		},
		"BlockDiagSumInto": func(p Pool) { BlockDiagSumInto(mat.NewWorkspace(), p, nil, w) },
	} {
		pool := NewStream(&failAfter{PoolSource: shards, from: 3*winBlock + 512}, set.H, winBlock)
		sweep(pool)
		if err := pool.Err(); !errors.Is(err, ErrPoolRead) || !errors.Is(err, errWindow) {
			t.Fatalf("%s: Err() = %v, want a pool read error over the injected one", name, err)
		}
	}
}
