package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// roundSeedStride mirrors Learner.state(): round r of a session seeded s
// draws from s + r·7919, so the service's per-round seeds line up with the
// library's.
const roundSeedStride = 7919

// runRound is the round goroutine: wait for an admission slot, run one
// train+select on the process-wide worker pool, and record the outcome.
// Cancellation (session delete, server shutdown) marks the round
// interrupted — its RELAX state stays on disk and the next server startup
// resumes it; any other failure marks it failed, and the next round
// warm-starts from its state only if its RELAX had finished. A panic here
// is a programming error; the last-resort recover fails the round with
// it, instead of the daemon, and logs the stack.
func (s *Server) runRound(ctx context.Context, cancel context.CancelFunc, sess *Session, rm *RoundMeta, ticket *Ticket) {
	defer s.wg.Done()
	defer sess.roundWG.Done()
	defer cancel()
	defer ticket.Release()

	finish := func(status, errMsg string) {
		// Free the slot before the status is visible: a client that sees
		// the round end finds its admission slot already back.
		ticket.Release()
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
	defer func() {
		if e := recover(); e != nil {
			s.cfg.Logf("session %s: round %d panicked: %v\n%s", sess.meta.ID, rm.Round, e, debug.Stack())
			finish(RoundFailed, fmt.Sprintf("panic: %v", e))
		}
	}()

	if err := ticket.Wait(ctx); err != nil {
		finish(RoundInterrupted, "")
		return
	}
	sess.mu.Lock()
	rm.Status = RoundRunning
	if err := sess.persistLocked(); err != nil {
		s.cfg.Logf("session %s: persist round %d: %v", sess.meta.ID, rm.Round, err)
	}
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
// previously selected rows excluded. Approx- and Dist-FIRAL are one
// distfiral.SelectInProcess call at one rank or at Config.Ranks. Their
// RELAX state is checkpointed through the solver's iteration hook into
// the session's one state file, from which an interrupted attempt
// resumes and the next round warm-starts.
func (s *Server) selectOnce(ctx context.Context, sess *Session, rm *RoundMeta) (*roundOutput, error) {
	sess.mu.Lock()
	meta := sess.meta // shallow copy; slices are not mutated while a round runs
	exclude := sess.excludeLocked()
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
	// The Subrange pins the round's row count of the session's live pool.
	pool := dataset.Subrange(src, 0, meta.Rows)

	switch meta.Selector {
	case "Approx-FIRAL", "Dist-FIRAL":
		reduced := mat.NewDense(meta.Rows, meta.Classes-1)
		if err := hessian.PoolProbs(reduced, pool, model.Theta); err != nil {
			return nil, err
		}

		relax := firal.RelaxOptions{
			MaxIter:         meta.RelaxIters,
			FixedIterations: meta.FixedRelaxIters,
			Probes:          meta.Probes,
			CGTol:           meta.CGTol,
			Seed:            seed,
		}
		// The state file holds this round's own state (resume: mid-round
		// state beats a prior's), or the previous round's finished solve
		// (warm start, reprojected onto the grown simplex if rows were
		// appended in between). The Done checkpoint fires before the
		// budget scaling, so its Z still sums to 1 — exactly the simplex
		// point the next round wants to start from. Any other state is
		// ignored and overwritten by this round's first checkpoint.
		if sr, ck, err := readCheckpoint(statePath(sess.dir)); err == nil {
			switch {
			case sr == rm.Round:
				relax.Resume = ck
				sess.mu.Lock()
				sess.progress = roundProgress{RelaxIteration: ck.Iteration, RelaxDone: ck.Done, CGIterations: ck.CGIterations}
				sess.mu.Unlock()
				s.cfg.Logf("session %s: round %d resuming RELAX from iteration %d (done=%v)",
					meta.ID, rm.Round, ck.Iteration, ck.Done)
			case sr == rm.Round-1 && ck.Done && len(ck.Z) > 0 && len(ck.Z) <= meta.Rows:
				relax.WarmStart = firal.ReprojectSimplex(ck.Z, meta.Rows)
				s.cfg.Logf("session %s: round %d warm-started from round %d weights (%d → %d rows)",
					meta.ID, rm.Round, sr, len(ck.Z), meta.Rows)
			}
		}
		relax.OnIteration = func(ck *firal.RelaxCheckpoint) {
			sess.mu.Lock()
			sess.progress = roundProgress{RelaxIteration: ck.Iteration, RelaxDone: ck.Done, CGIterations: ck.CGIterations}
			sess.mu.Unlock()
			if err := writeCheckpoint(statePath(sess.dir), rm.Round, ck); err != nil {
				s.cfg.Logf("session %s: round %d checkpoint: %v", meta.ID, rm.Round, err)
			}
		}
		labeled := hessian.NewSet(labM, hessian.ReduceProbs(softmax.Probabilities(nil, labM, model.Theta)))

		// Dist-FIRAL runs the same solve on Config.Ranks in-process ranks.
		// RELAX checkpoints are global (rank-count independent) and share
		// the serial format, so an interrupted dist round resumes, and the
		// next one warm-starts, like an Approx one — even if the server
		// restarts with a different -ranks.
		ranks := 1
		if meta.Selector == "Dist-FIRAL" {
			ranks = s.cfg.Ranks
		}
		res, err := distfiral.SelectInProcess(ctx, ranks, labeled, pool, reduced, rm.Budget,
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
		probs := mat.NewDense(meta.Rows, meta.Classes)
		if err := hessian.PoolProbs(probs, pool, model.Theta); err != nil {
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
