package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/rnd"
)

// stream_select_1e6: one Approx-FIRAL selection over a 1,000,000×64
// float32 pool in two mmap'd shard files, binary problem (one Fisher
// block), composed with dataset.WithPrefetch as in production. RELAX runs
// one fixed iteration with s = 10 probes and CG capped at 8; ROUND picks
// b = 2. A dataset.CountingSource sits below the prefetcher in both the
// untraced and the traced stack (two atomic adds per block read), so the
// exact decode traffic of every operation is checked.
const (
	streamN     = 1_000_000
	streamD     = 64
	streamSplit = 600_000 // rows in the first shard; the seam is crossed every sweep
)

func runStream(h *harness) error {
	rng := rnd.New(h.seed)
	probs := mat.NewDense(streamN, 1)
	for i := range probs.Data {
		probs.Data[i] = 0.1 + 0.8*rng.Float64()
	}
	paths := []string{filepath.Join(h.dir, "pool-0.shard"), filepath.Join(h.dir, "pool-1.shard")}
	for s, rows := range []int{streamSplit, streamN - streamSplit} {
		if err := writeShard(paths[s], rows, streamD, func(_ int, b *mat.Dense) {
			float32Normal(rng, b.Data)
		}); err != nil {
			return err
		}
	}
	labeled := genClassProblem(h.seed+1, 1, 20, streamD, 1).labeled

	sc := &selectCase{
		budget: 2,
		relax:  firal.RelaxOptions{FixedIterations: 1, Probes: 10, CGTol: 0.1, CGMaxIter: 8, Seed: h.seed},
		shape:  shape{n: streamN, d: streamD, c: 1, probes: 10, iters: 1, budget: 2, ranks: 1, elemBytes: 4},
	}
	sc.repeats = 1 // the warm-up alone takes about ten seconds
	sc.open = func(ctx context.Context, tr *tracer) (*selectStack, error) {
		src, err := dataset.OpenShards(paths...)
		if err != nil {
			return nil, err
		}
		st := &selectStack{src: src, counting: dataset.NewCountingSource(src)}
		var below dataset.PoolSource = st.counting
		if tr != nil {
			st.decode = &decodeTimer{src: st.counting, tr: tr}
			below = st.decode
		}
		pf, ok := dataset.WithPrefetch(ctx, below, 0).(*dataset.PrefetchSource)
		if !ok {
			src.Close()
			return nil, fmt.Errorf("stream pool is not prefetched")
		}
		st.prefetch = pf
		var above dataset.PoolSource = pf
		if tr != nil {
			if st.stall, err = newStallTimer(pf, tr); err != nil {
				pf.Close()
				return nil, err
			}
			above = st.stall
		}
		st.prob = firal.NewProblem(labeled, hessian.NewStream(above, probs, 0))
		st.close = func() { pf.Close() }
		return st, nil
	}
	// The prefetch layer must be transparent: the synchronous path gives
	// bit-identical RELAX weights, the same selection, and the same
	// decode sweeps.
	sc.postCheck = func(ctx context.Context, st *selectStack, warm *firal.Result, warmIO ioCounts) error {
		counting := dataset.NewCountingSource(st.src)
		p := firal.NewProblem(labeled, hessian.NewStream(counting, probs, 0))
		res, err := firal.SelectApprox(ctx, p, sc.budget, firal.Options{Relax: sc.relax})
		if err != nil {
			return fmt.Errorf("prefetch-off path: %w", err)
		}
		if !sameBits(res.Relax.Z, warm.Relax.Z) {
			return fmt.Errorf("prefetch-off RELAX weights differ from the prefetched warm-up's")
		}
		if !slices.Equal(res.Selected, warm.Selected) {
			return fmt.Errorf("prefetch-off selection %v differs from the prefetched %v", res.Selected, warm.Selected)
		}
		if counting.RowsRead() != warmIO.rows {
			return fmt.Errorf("prefetch-off path decoded %d rows, prefetched %d", counting.RowsRead(), warmIO.rows)
		}
		return nil
	}
	return runSelect(h, sc)
}

// sameBits reports whether two vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
