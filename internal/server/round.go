package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// roundSeedStride mirrors Learner.state(): round r of a session seeded s
// draws from s + r·7919, so the service's per-round seeds line up with the
// library's.
const roundSeedStride = 7919

// runRound is the round goroutine: wait for an admission slot, run one
// train+select under the session's scoped worker limit, and record the
// outcome. Cancellation (session delete, server shutdown) marks the round
// interrupted — its checkpoint stays on disk and the next server startup
// resumes it; any other failure marks it failed and clears the checkpoint.
func (s *Server) runRound(ctx context.Context, cancel context.CancelFunc, sess *Session, rm *RoundMeta, ticket *Ticket) {
	defer s.wg.Done()
	defer sess.roundWG.Done()
	defer cancel()
	defer ticket.Release()

	finish := func(status, errMsg string) {
		sess.mu.Lock()
		rm.Status = status
		rm.Error = errMsg
		sess.cancelRound = nil
		sess.ticket = nil
		if err := sess.persistLocked(); err != nil {
			s.cfg.Logf("session %s: persist round %d: %v", sess.meta.ID, rm.Round, err)
		}
		sess.mu.Unlock()
	}

	if err := ticket.Wait(ctx); err != nil {
		finish(RoundInterrupted, "")
		return
	}
	sess.mu.Lock()
	rm.Status = RoundRunning
	if err := sess.persistLocked(); err != nil {
		s.cfg.Logf("session %s: persist round %d: %v", sess.meta.ID, rm.Round, err)
	}
	workers := sess.meta.Workers
	sess.mu.Unlock()

	if workers > 0 {
		lim := parallel.AcquireLimit(workers)
		defer lim.Release()
	}
	sess.mu.Lock()
	rm.WorkersObserved = parallel.Workers()
	sess.mu.Unlock()

	t0 := time.Now()
	out, err := s.selectOnce(ctx, sess, rm)
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		s.cfg.Logf("session %s: round %d interrupted (checkpoint retained)", sess.meta.ID, rm.Round)
		finish(RoundInterrupted, "")
		return
	case err != nil:
		s.cfg.Logf("session %s: round %d failed: %v", sess.meta.ID, rm.Round, err)
		os.Remove(checkpointPath(sess.dir)) // a failed round's state is not resumable
		finish(RoundFailed, err.Error())
		return
	}

	sess.mu.Lock()
	rm.Selected = out.selected
	rm.Eta = out.eta
	rm.RelaxIterations = out.relaxIters
	rm.CGIterations = out.cgIters
	rm.TrainSeconds = out.trainSeconds
	rm.SelectSeconds = time.Since(t0).Seconds() - out.trainSeconds
	sess.mu.Unlock()

	os.Remove(checkpointPath(sess.dir)) // the round is durable in session.json now
	finish(RoundDone, "")
	s.cfg.Logf("session %s: round %d done: %d selected in %.2fs",
		sess.meta.ID, rm.Round, len(out.selected), rm.SelectSeconds)
}

// roundOutput is what selectOnce hands back to runRound.
type roundOutput struct {
	selected     []int
	eta          float64
	relaxIters   int
	cgIters      int
	trainSeconds float64
}

// selectOnce performs one train+select: assemble the labeled set (direct
// uploads plus index-labeled pool rows), train the classifier, stream the
// pool once for probabilities, and dispatch to the session's selector with
// previously selected rows excluded. For Approx- and Dist-FIRAL the RELAX
// state is checkpointed through the solver's iteration hook and restored
// when a matching checkpoint survives from an interrupted attempt, and
// each round warm-starts from the previous round's converged weights.
func (s *Server) selectOnce(ctx context.Context, sess *Session, rm *RoundMeta) (*roundOutput, error) {
	sess.mu.Lock()
	meta := sess.meta // shallow copy; slices are not mutated while a round runs
	exclude := sess.excludeLocked()
	cachedProbs, cachedLabeled := sess.probs, sess.probsLabeled
	sess.mu.Unlock()
	src := sess.src

	// Labeled set: uploaded examples first, then index-labeled pool rows
	// read back from the shards (stable order — a resumed round must train
	// on the identical matrix).
	nLab := len(meta.LabeledX) + len(meta.IndexLabels)
	labM := mat.NewDense(nLab, meta.Dim)
	labY := make([]int, 0, nLab)
	for i, row := range meta.LabeledX {
		copy(labM.Row(i), row)
	}
	labY = append(labY, meta.LabeledY...)
	for k, il := range meta.IndexLabels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowDst := labM.RowSlice(len(meta.LabeledX)+k, len(meta.LabeledX)+k+1)
		if err := src.ReadRows(il.Index, il.Index+1, rowDst); err != nil {
			return nil, fmt.Errorf("read labeled pool row %d: %w", il.Index, err)
		}
		labY = append(labY, il.Label)
	}

	t0 := time.Now()
	model, err := logreg.Train(labM, labY, meta.Classes, nil, logreg.Options{Lambda: meta.Lambda})
	if err != nil {
		return nil, fmt.Errorf("train classifier: %w", err)
	}
	out := &roundOutput{trainSeconds: time.Since(t0).Seconds()}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	seed := meta.Seed + int64(rm.Round)*roundSeedStride
	blockRows := meta.BlockRows
	if blockRows <= 0 {
		blockRows = s.cfg.BlockRows
	}

	switch meta.Selector {
	case "Approx-FIRAL", "Dist-FIRAL":
		reduced, err := s.roundProbs(sess, meta, rm.Round, src, model, nLab, blockRows, cachedProbs, cachedLabeled)
		if err != nil {
			return nil, err
		}

		relax := firal.RelaxOptions{
			MaxIter:         meta.RelaxIters,
			FixedIterations: meta.FixedRelaxIters,
			Probes:          meta.Probes,
			CGTol:           meta.CGTol,
			Seed:            seed,
		}
		// Warm start: seed mirror descent from the previous round's
		// converged weights (reprojected onto the grown simplex if rows
		// were appended in between). A resume checkpoint for *this* round
		// takes precedence below — mid-round state beats a prior's.
		if wr, wck, err := readCheckpoint(warmPath(sess.dir)); err == nil {
			if wr == rm.Round-1 && len(wck.Z) > 0 && len(wck.Z) <= meta.Rows {
				relax.WarmStart = firal.ReprojectSimplex(wck.Z, meta.Rows)
				s.cfg.Logf("session %s: round %d warm-started from round %d weights (%d → %d rows)",
					meta.ID, rm.Round, wr, len(wck.Z), meta.Rows)
			}
		}
		if round, ck, err := readCheckpoint(checkpointPath(sess.dir)); err == nil && round == rm.Round {
			relax.Resume = ck
			sess.mu.Lock()
			sess.progress = roundProgress{RelaxIteration: ck.Iteration, RelaxDone: ck.Done, CGIterations: ck.CGIterations}
			sess.mu.Unlock()
			s.cfg.Logf("session %s: round %d resuming RELAX from iteration %d (done=%v)",
				meta.ID, rm.Round, ck.Iteration, ck.Done)
		} else if err == nil {
			os.Remove(checkpointPath(sess.dir)) // stale: belongs to another round
		}
		every := s.cfg.CheckpointEvery
		relax.OnIteration = func(ck *firal.RelaxCheckpoint) {
			sess.mu.Lock()
			sess.progress = roundProgress{RelaxIteration: ck.Iteration, RelaxDone: ck.Done, CGIterations: ck.CGIterations}
			sess.mu.Unlock()
			if ck.Done || ck.Iteration%every == 0 {
				if err := writeCheckpoint(checkpointPath(sess.dir), rm.Round, ck); err != nil {
					s.cfg.Logf("session %s: round %d checkpoint: %v", meta.ID, rm.Round, err)
				}
			}
			if ck.Done {
				// The Done checkpoint fires before the budget scaling, so
				// ck.Z still sums to 1 — exactly the simplex point the
				// next round wants to start from.
				if err := writeCheckpoint(warmPath(sess.dir), rm.Round, ck); err != nil {
					s.cfg.Logf("session %s: round %d warm checkpoint: %v", meta.ID, rm.Round, err)
				}
			}
		}
		labeled := hessian.NewSet(labM, hessian.ReduceProbs(softmax.Probabilities(nil, labM, model.Theta)))

		if meta.Selector == "Dist-FIRAL" {
			// In-process distributed rounds: Config.Ranks goroutine ranks
			// run the § III-C solver over stream shards of the pinned pool
			// view. RELAX checkpoints are global (rank-count independent)
			// and share the serial format, so an interrupted dist round
			// resumes, and the next one warm-starts, like an Approx one —
			// even if the server restarts with a different -ranks.
			pinned := dataset.Subrange(src, 0, meta.Rows)
			ranks := s.cfg.Ranks
			type rankOut struct {
				sel                 []int
				relaxIters, cgIters int
				err                 error
			}
			outs := make([]rankOut, ranks)
			mpi.Run(ranks, func(c *mpi.Comm) {
				ro := relax
				if c.Rank() != 0 {
					// The checkpoint gather is a collective, so the hook
					// must be set on every rank; only rank 0 touches disk
					// and progress.
					ro.OnIteration = func(*firal.RelaxCheckpoint) {}
				}
				sh := distfiral.MakeStreamShard(labeled, pinned, reduced, blockRows, ranks, c.Rank())
				rres, rerr := distfiral.Relax(ctx, c, sh, rm.Budget, ro)
				if rerr != nil {
					outs[c.Rank()].err = rerr
					return
				}
				rd, rerr := distfiral.Round(ctx, c, sh, rres.Z, rm.Budget, 0, exclude...)
				if rerr != nil {
					outs[c.Rank()].err = rerr
					return
				}
				outs[c.Rank()] = rankOut{sel: rd.Selected, relaxIters: rres.Iterations, cgIters: rres.CGIterations}
			})
			for _, ro := range outs {
				if ro.err != nil {
					return nil, ro.err
				}
			}
			out.selected = outs[0].sel
			out.eta = 8 * math.Sqrt(float64(meta.Dim*(meta.Classes-1)))
			out.relaxIters = outs[0].relaxIters
			out.cgIters = outs[0].cgIters
			return out, nil
		}

		// The sweep source is a pinned [0, meta.Rows) view of the session's
		// live pool wrapped in block read-ahead: while the solver kernels
		// chew block k, block k+1 is already decoding. The Subrange both
		// pins the round's row count and makes the prefetcher's Close a
		// no-op chain — the session's LiveSource outlives the round.
		// Cancelling the round stops further read-ahead; the solver exits
		// at its next ctx poll and the deferred Close drains whatever read
		// is still in flight.
		swept := dataset.WithPrefetch(ctx, dataset.Subrange(src, 0, meta.Rows), blockRows)
		defer swept.Close()
		pool := hessian.NewStream(swept, reduced, blockRows)
		res, err := firal.SelectApprox(ctx, firal.NewProblem(labeled, pool), rm.Budget,
			firal.Options{Relax: relax, Exclude: exclude})
		if err != nil {
			return nil, err
		}
		out.selected = res.Selected
		out.eta = res.Eta
		out.relaxIters = res.Relax.Iterations
		out.cgIters = res.Relax.CGIterations
		return out, nil

	case "Exact-FIRAL":
		x, err := s.resident(src)
		if err != nil {
			return nil, err
		}
		probs := softmax.Probabilities(nil, x, model.Theta)
		labeled := hessian.NewSet(labM, hessian.ReduceProbs(softmax.Probabilities(nil, labM, model.Theta)))
		pool := hessian.NewSet(x, hessian.ReduceProbs(probs))
		relax := firal.RelaxOptions{MaxIter: meta.RelaxIters, FixedIterations: meta.FixedRelaxIters, Seed: seed}
		res, err := firal.SelectExact(ctx, firal.NewProblem(labeled, pool), rm.Budget,
			firal.Options{Relax: relax, Exclude: exclude})
		if err != nil {
			return nil, err
		}
		out.selected = res.Selected
		out.eta = res.Eta
		out.relaxIters = res.Relax.Iterations
		return out, nil

	case "Random":
		allowed := allowedIndices(meta.Rows, exclude)
		picked := baselines.Random(len(allowed), rm.Budget, rnd.New(seed))
		out.selected = mapBack(picked, allowed)
		return out, nil

	case "K-Means":
		x, err := s.resident(src)
		if err != nil {
			return nil, err
		}
		allowed := allowedIndices(meta.Rows, exclude)
		compact := mat.NewDense(len(allowed), meta.Dim)
		for r, i := range allowed {
			copy(compact.Row(r), x.Row(i))
		}
		picked := baselines.KMeans(compact, rm.Budget, rnd.New(seed))
		out.selected = mapBack(picked, allowed)
		return out, nil

	case "Entropy", "Margin", "Least-Confidence":
		probs, err := streamProbs(src, model, meta.Classes, blockRows, false)
		if err != nil {
			return nil, err
		}
		allowed := allowedIndices(meta.Rows, exclude)
		compact := mat.NewDense(len(allowed), meta.Classes)
		for r, i := range allowed {
			copy(compact.Row(r), probs.Row(i))
		}
		var picked []int
		switch meta.Selector {
		case "Entropy":
			picked = baselines.Entropy(compact, rm.Budget)
		case "Margin":
			picked = baselines.Margin(compact, rm.Budget)
		default:
			picked = baselines.LeastConfidence(compact, rm.Budget)
		}
		out.selected = mapBack(picked, allowed)
		return out, nil
	}
	return nil, fmt.Errorf("selector %s is not servable", meta.Selector)
}

// roundProbs computes the round's reduced probability matrix and caches
// it on the session. The labeled set only grows, so an unchanged labeled
// count means the identical training matrix and (training being
// deterministic) the identical model — the previous round's probabilities
// are still exact, and only rows appended to the pool since then need the
// model applied. This is what makes a round after a small pool append
// cost O(Δn·d) here instead of O(n·d).
func (s *Server) roundProbs(sess *Session, meta sessionMeta, round int, src dataset.PoolSource, model *logreg.Model, nLab, blockRows int, cachedProbs *mat.Dense, cachedLabeled int) (*mat.Dense, error) {
	var reduced *mat.Dense
	switch {
	case cachedProbs != nil && cachedLabeled == nLab && cachedProbs.Rows == meta.Rows:
		reduced = cachedProbs
	case cachedProbs != nil && cachedLabeled == nLab && cachedProbs.Rows < meta.Rows:
		reduced = mat.NewDense(meta.Rows, meta.Classes-1)
		copy(reduced.Data[:cachedProbs.Rows*reduced.Cols], cachedProbs.Data)
		if err := streamProbsRange(src, model, meta.Classes, blockRows, true, cachedProbs.Rows, meta.Rows, reduced); err != nil {
			return nil, err
		}
		s.cfg.Logf("session %s: round %d probability pass over %d appended rows (of %d)",
			meta.ID, round, meta.Rows-cachedProbs.Rows, meta.Rows)
	default:
		var err error
		if reduced, err = streamProbs(src, model, meta.Classes, blockRows, true); err != nil {
			return nil, err
		}
	}
	sess.mu.Lock()
	sess.probs, sess.probsLabeled = reduced, nLab
	sess.mu.Unlock()
	return reduced, nil
}

// streamProbs sweeps the pool once under the trained model. With reduce
// set it returns the n×(c−1) reduced matrix the FIRAL solvers consume
// (Eq. 1, last class dropped); otherwise the full n×c softmax the
// uncertainty baselines score — either way O(n·c) resident, never the
// features.
func streamProbs(src dataset.PoolSource, model *logreg.Model, classes, blockRows int, reduce bool) (*mat.Dense, error) {
	n := src.NumRows()
	cols := classes
	if reduce {
		cols = classes - 1
	}
	outM := mat.NewDense(n, cols)
	if err := streamProbsRange(src, model, classes, blockRows, reduce, 0, n, outM); err != nil {
		return nil, err
	}
	return outM, nil
}

// streamProbsRange applies the model to pool rows [lo, hi) only, writing
// into the matching rows of outM (an n×cols matrix whose other rows are
// left untouched). Delta-aware rounds use it to score just the appended
// tail of a grown pool.
func streamProbsRange(src dataset.PoolSource, model *logreg.Model, classes, blockRows int, reduce bool, lo, hi int, outM *mat.Dense) error {
	if lo >= hi {
		return nil
	}
	if blockRows <= 0 {
		blockRows = dataset.DefaultBlockRows
	}
	cols := classes
	if reduce {
		cols = classes - 1
	}
	block := mat.NewDense(min(blockRows, hi-lo), src.Dim())
	probsBlock := mat.NewDense(min(blockRows, hi-lo), classes)
	for blo := lo; blo < hi; blo += block.Rows {
		bhi := min(blo+block.Rows, hi)
		xb := block.RowSlice(0, bhi-blo)
		if err := src.ReadRows(blo, bhi, xb); err != nil {
			return err
		}
		pb := softmax.Probabilities(probsBlock.RowSlice(0, bhi-blo), xb, model.Theta)
		for i := blo; i < bhi; i++ {
			copy(outM.Row(i), pb.Row(i - blo)[:cols])
		}
	}
	return nil
}

// allowedIndices returns [0, n) minus the excluded set, ascending.
func allowedIndices(n int, exclude []int) []int {
	dead := make(map[int]bool, len(exclude))
	for _, i := range exclude {
		dead[i] = true
	}
	out := make([]int, 0, n-len(exclude))
	for i := 0; i < n; i++ {
		if !dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// mapBack translates compacted-pool indices to global pool rows.
func mapBack(picked, allowed []int) []int {
	out := make([]int, len(picked))
	for k, i := range picked {
		out[k] = allowed[i]
	}
	return out
}
