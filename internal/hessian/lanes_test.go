package hessian

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
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
	for i := range s.reads {
		if n := s.reads[i].Swap(0); n != 1 {
			t.Fatalf("%s: row %d decoded %d times in one sweep", what, i, n)
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
				pf := dataset.NewPrefetchSource(context.Background(), tally, bs)
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
