package hessian

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
)

// prefetchedStream serves a Set's features through a PrefetchSource, the
// async read-ahead path. The CountingSource underneath hides the
// Resident fast path, so reads flow through the same decode machinery an
// out-of-core shard would use; wrapping forces the lender route in
// Stream regardless of pool size.
func prefetchedStream(s *Set, blockRows int) (*Stream, *dataset.CountingSource) {
	counting := dataset.NewCountingSource(dataset.NewMatrixSource(s.X))
	p := dataset.NewPrefetchSource(context.Background(), counting)
	return NewStream(p, s.H, blockRows), counting
}

// TestPrefetchedKernelsBitIdentical pins the tentpole's transparency at
// the kernel level: every blocked engine — the multi-RHS Lemma-2 matvec,
// the gradient accumulation, and the Gram block sum — produces
// bit-for-bit identical results whether the blocks arrive through
// synchronous workspace decode or the asynchronous lend handoff, across
// ragged block sizes.
func TestPrefetchedKernelsBitIdentical(t *testing.T) {
	set := allocSet(397, 13, 5) // 397 prime: ragged against every block size
	w := make([]float64, set.N())
	for i := range w {
		w[i] = 0.1 + float64(i%9)/9
	}
	const s = 4
	vt, _ := blockVectors(set.Ed(), s, 31)
	ut, _ := blockVectors(set.Ed(), s, 32)

	for _, bs := range []int{32, 100, 396} {
		sync := NewStream(dataset.NewCountingSource(dataset.NewMatrixSource(set.X)), set.H, bs)
		pre, _ := prefetchedStream(set, bs)
		ws1, ws2 := mat.NewWorkspace(), mat.NewWorkspace()

		wantMV, gotMV := mat.NewDense(s, set.Ed()), mat.NewDense(s, set.Ed())
		MatVecBlockWS(ws1, sync, wantMV, vt, w)
		MatVecBlockWS(ws2, pre, gotMV, vt, w)
		for i := range wantMV.Data {
			if math.Float64bits(gotMV.Data[i]) != math.Float64bits(wantMV.Data[i]) {
				t.Fatalf("bs=%d: MatVecBlock[%d] = %g prefetched, %g sync", bs, i, gotMV.Data[i], wantMV.Data[i])
			}
		}

		wantQ, gotQ := make([]float64, set.N()), make([]float64, set.N())
		QuadAccumBlockWS(ws1, sync, wantQ, ut, vt, -0.5)
		QuadAccumBlockWS(ws2, pre, gotQ, ut, vt, -0.5)
		for i := range wantQ {
			if math.Float64bits(gotQ[i]) != math.Float64bits(wantQ[i]) {
				t.Fatalf("bs=%d: QuadAccum[%d] = %g prefetched, %g sync", bs, i, gotQ[i], wantQ[i])
			}
		}

		wantG := BlockDiagSumInto(ws1, sync, nil, w)
		gotG := BlockDiagSumInto(ws2, pre, nil, w)
		for k := range wantG {
			for i := range wantG[k].Data {
				if math.Float64bits(gotG[k].Data[i]) != math.Float64bits(wantG[k].Data[i]) {
					t.Fatalf("bs=%d: Gram block %d[%d] = %g prefetched, %g sync",
						bs, k, i, gotG[k].Data[i], wantG[k].Data[i])
				}
			}
		}
	}
}

// TestPrefetchedStreamZeroAllocMulticore pins the lane path over a
// prefetched pool at GOMAXPROCS 2 and 4, with as many workers: the pool
// has eight blocks, enough for W lanes, so every sweep runs on
// parallel.ForBlocks and each lane decodes its own blocks through the
// prefetcher's ReadRows (LaneRows). With warm state, a full sweep through
// each blocked kernel allocates nothing, lends nothing (the read-ahead
// is for one-lane sweeps), and decodes every row exactly once. Named
// *Alloc* for the CI alloc-multicore job.
func TestPrefetchedStreamZeroAllocMulticore(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	set := allocSet(2000, 24, 5)
	const bs = 256
	const s = 3
	vt, _ := blockVectors(set.Ed(), s, 41)
	ut, _ := blockVectors(set.Ed(), s, 42)
	dstMV := mat.NewDense(s, set.Ed())
	dstQ := make([]float64, set.N())
	w := make([]float64, set.N())
	mat.Fill(w, 0.5)
	for _, nw := range []int{2, 4} {
		runtime.GOMAXPROCS(nw)
		parallel.SetMaxWorkers(nw)
		if nb := (set.N() + bs - 1) / bs; parallel.BlockLanes(nb) != nw {
			t.Fatalf("%d blocks at %d workers run on %d lanes", nb, nw, parallel.BlockLanes(nb))
		}
		tally := newRowTally(dataset.NewMatrixSource(set.X))
		lender := dataset.NewPrefetchSource(context.Background(), tally)
		pre := NewStream(lender, set.H, bs)
		ws := mat.NewWorkspace()
		var grams []*mat.Dense
		sweep := func() {
			MatVecBlockWS(ws, pre, dstMV, vt, w)
			QuadAccumBlockWS(ws, pre, dstQ, ut, vt, -0.1)
			grams = BlockDiagSumInto(ws, pre, grams, w)
		}
		sweep() // size the lanes' decode buffers, workspace scratch, and Gram storage
		tally.times(t, fmt.Sprintf("%d workers, first sweeps", nw), 3)
		const runs = 30
		if allocs := testing.AllocsPerRun(runs, sweep); allocs != 0 {
			t.Fatalf("warm prefetched kernel sweep allocates %.1f objects per pass at %d workers", allocs, nw)
		}
		// AllocsPerRun makes one warm-up call besides the runs; each
		// call is three sweeps.
		tally.times(t, fmt.Sprintf("%d workers", nw), 3*(runs+1))
		if hits, misses := lender.Stats(); hits != 0 || misses != 0 {
			t.Fatalf("%d workers: %d hits / %d misses, want no lends on the lanes", nw, hits, misses)
		}
		if err := pre.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefetchedStreamRowFetch pins the Row passthrough: single-row
// fetches through a prefetched stream (the ROUND winner's feature row)
// return exact bytes without disturbing an ongoing sweep's pipeline.
func TestPrefetchedStreamRowFetch(t *testing.T) {
	set := allocSet(300, 9, 4)
	pre, _ := prefetchedStream(set, 64)
	buf := make([]float64, set.D())
	rng := rnd.New(17)
	for k := 0; k < 20; k++ {
		i := int(rng.Float64() * float64(set.N()))
		row := pre.Row(i, buf)
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(set.X.At(i, j)) {
				t.Fatalf("row %d col %d = %g, want %g", i, j, v, set.X.At(i, j))
			}
		}
	}
}
