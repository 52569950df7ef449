package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/firal"
)

// selectStack is one composed Approx-FIRAL problem: the production
// composition in untraced form, or the same composition with timing
// wrappers around the prefetch layer in traced form.
type selectStack struct {
	prob     *firal.Problem
	src      dataset.PoolSource      // the opened pool; nil when resident
	counting *dataset.CountingSource // below the prefetcher; nil when resident
	prefetch *dataset.PrefetchSource // nil when resident
	decode   *decodeTimer            // traced only
	stall    *stallTimer             // traced only
	close    func()
}

// ioCounts are the exact dataset counts of one operation.
type ioCounts struct {
	reads, rows, hits, misses int64
}

func (st *selectStack) counts() ioCounts { return countsOf(st.counting, st.prefetch) }

// countsOf reads the cumulative counts of a counting source and the
// prefetcher above it; either may be nil.
func countsOf(counting *dataset.CountingSource, pf *dataset.PrefetchSource) ioCounts {
	var c ioCounts
	if counting != nil {
		c.reads, c.rows = counting.Reads(), counting.RowsRead()
	}
	if pf != nil {
		c.hits, c.misses = pf.Stats()
	}
	return c
}

func (c ioCounts) minus(o ioCounts) ioCounts {
	return ioCounts{c.reads - o.reads, c.rows - o.rows, c.hits - o.hits, c.misses - o.misses}
}

// selectCase is a repeated Approx-FIRAL operation: every operation gets
// the same inputs and options, so every selection must be bit-identical
// to the warm-up's.
type selectCase struct {
	budget  int
	relax   firal.RelaxOptions
	shape   shape
	repeats int // set-ups per run
	// open composes a stack; tr != nil adds the timing wrappers.
	open func(ctx context.Context, tr *tracer) (*selectStack, error)
	// postCheck, when set, cross-checks the warm-up against another
	// code path after the timed loop.
	postCheck func(ctx context.Context, st *selectStack, warm *firal.Result, warmIO ioCounts) error
}

// outcome is one operation's result, exact counts and wall time.
type outcome struct {
	res  *firal.Result
	io   ioCounts
	wall float64 // seconds
}

// selectOnce is one untraced operation: SelectApprox, as a caller runs it.
func (sc *selectCase) selectOnce(ctx context.Context, st *selectStack) (outcome, error) {
	before := st.counts()
	t0 := time.Now()
	res, err := firal.SelectApprox(ctx, st.prob, sc.budget, firal.Options{Relax: sc.relax})
	return outcome{res: res, io: st.counts().minus(before), wall: time.Since(t0).Seconds()}, err
}

// tracedSelect is the same operation with a span per layer call:
// SelectApprox is RelaxFast followed by RoundFast at the default η,
// called here one at a time so each gets its own span.
func (sc *selectCase) tracedSelect(ctx context.Context, st *selectStack, tr *tracer, op int) (outcome, error) {
	before := st.counts()
	t0 := time.Now()
	root := tr.beginOp("op", op)
	id := tr.begin("firal.relax", root)
	relax, err := firal.RelaxFast(ctx, st.prob, sc.budget, sc.relax)
	tr.end(id)
	if err != nil {
		tr.endOp(root)
		return outcome{}, err
	}
	id = tr.begin("firal.round", root)
	round, err := firal.RoundFast(st.prob, relax.Z, sc.budget, firal.RoundOptions{Eta: st.prob.DefaultEta()})
	tr.end(id)
	tr.endOp(root)
	if err != nil {
		return outcome{}, err
	}
	res := &firal.Result{Selected: round.Selected, Eta: st.prob.DefaultEta(), Relax: relax, Round: round}
	return outcome{res: res, io: st.counts().minus(before), wall: time.Since(t0).Seconds()}, nil
}

// check compares an operation with the warm-up: the selection bit for
// bit and the dataset counts exactly.
func check(got, warm outcome) error {
	if !slices.Equal(got.res.Selected, warm.res.Selected) {
		return fmt.Errorf("selection %v differs from the warm-up's %v", got.res.Selected, warm.res.Selected)
	}
	if got.io != warm.io {
		return fmt.Errorf("dataset counts %+v differ from the warm-up's %+v", got.io, warm.io)
	}
	return nil
}

// runSelect drives a select workload: set-ups with warm-up, then the
// timed loop (untraced), or alternating untraced and traced operations
// (traced run).
func runSelect(h *harness, sc *selectCase) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type state struct {
		st   *selectStack
		warm outcome
	}
	s, err := setUp(h, sc.repeats, func() (state, error) {
		st, err := sc.open(ctx, nil)
		if err != nil {
			return state{}, err
		}
		warm, err := sc.selectOnce(ctx, st)
		if err != nil {
			st.close()
			return state{}, fmt.Errorf("warm-up: %w", err)
		}
		return state{st, warm}, nil
	}, func(s state) { s.st.close() })
	if err != nil {
		return err
	}
	defer s.st.close()
	log.Printf("warm-up selected %v, dataset counts %+v", s.warm.res.Selected, s.warm.io)

	untracedOp := func() error {
		got, err := sc.selectOnce(ctx, s.st)
		if err != nil {
			return err
		}
		if err := check(got, s.warm); err != nil {
			return err
		}
		h.record(got.wall)
		return nil
	}
	if h.tr == nil {
		h.loop(1, func(int) error { return untracedOp() })
		if sc.postCheck != nil {
			if err := sc.postCheck(ctx, s.st, s.warm.res, s.warm.io); err != nil {
				h.fail("%v", err)
			}
		}
		return nil
	}

	traced, err := sc.open(ctx, h.tr)
	if err != nil {
		return err
	}
	defer traced.close()
	warm, err := sc.tracedSelect(ctx, traced, h.tr, 0)
	if err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	if err := check(warm, s.warm); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	m := calibrate()
	smp := samples{}
	smp.add("mat.gemm_gflops", m.Flops/1e9)
	var tracedSecs []float64
	h.loop(2, func(i int) error {
		if i%2 == 1 {
			return untracedOp()
		}
		decode0, wait0 := busy(traced)
		got, err := sc.tracedSelect(ctx, traced, h.tr, i)
		if err != nil {
			return err
		}
		// Transparency: tracing must change neither the selection nor
		// the dataset traffic.
		if err := check(got, s.warm); err != nil {
			return fmt.Errorf("traced operation: %w", err)
		}
		tracedSecs = append(tracedSecs, got.wall)
		decode1, wait1 := busy(traced)
		r, rd := got.res.Relax, got.res.Round
		smp.add("dataset.read_calls", float64(got.io.reads))
		smp.add("dataset.rows_read", float64(got.io.rows))
		smp.add("dataset.decode_sweeps", float64(got.io.rows)/float64(sc.shape.n))
		smp.add("dataset.decode_s", decode1-decode0)
		smp.add("dataset.wait_s", wait1-wait0)
		if n := got.io.hits + got.io.misses; n > 0 {
			smp.add("dataset.prefetch_hit_ratio", float64(got.io.hits)/float64(n))
		}
		smp.add("krylov.cg_iterations", float64(r.CGIterations))
		addPhases(smp, r.Timings, rd.Timings)
		q := sc.shape
		q.cgIters = r.CGIterations
		addModel(smp, m, q, r.Timings, rd.Timings, wait1-wait0)
		smp.add("trace.coverage", phaseSum(r.Timings, rd.Timings).Seconds()/got.wall)
		return nil
	})
	h.finishLayers(smp, tracedSecs)
	return nil
}

// busy reads the traced stack's accumulated decode and stall seconds.
func busy(st *selectStack) (decode, wait float64) {
	if st.decode != nil {
		decode = float64(st.decode.busy.Load()) / 1e9
	}
	if st.stall != nil {
		wait = float64(st.stall.wait.Load()) / 1e9
	}
	return
}
