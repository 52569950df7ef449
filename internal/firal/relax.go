package firal

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rnd"
	"repro/internal/timing"
)

// relaxScratch pools the per-call setup of RelaxGroup: the workspace, the
// hoisted probe/gradient buffers, the preconditioner factor storage, the
// Σz block cache, and the CG result and objective-history slices. For the
// paper-scale solves this setup is noise, but a session running many
// small rounds (the Table V schedules select 5–10 points per round) used
// to pay it per selection; with the pool a steady-state round reuses the
// previous round's storage whenever the shapes match. Only z and the
// RelaxResult escape and stay per-call.
type relaxScratch struct {
	n, ed, s, c, d int
	ws             *mat.Workspace
	g              []float64
	v              *mat.Dense // ẽd×s probe block, Rademacher draw order
	vt, w, hpw, w2 *mat.Dense // transposed blocks (s×ẽd, row j = column j)
	sigBlocks      []*mat.Dense
	fHist          []float64
	cg             []krylov.Result
	bp             *BlockPreconditionerWS
}

var relaxScratchPool = parallel.FreeList[relaxScratch]{New: func() *relaxScratch {
	return &relaxScratch{ws: mat.NewWorkspace(), bp: NewBlockPreconditionerWS()}
}}

// getRelaxScratch draws a scratch set from the pool, resizing whichever
// buffers do not match the requested shape (a reuse with the same shape
// allocates nothing).
func getRelaxScratch(n, ed, s, c, d int) *relaxScratch {
	sc := relaxScratchPool.Get()
	if sc.n != n {
		sc.g = make([]float64, n)
	}
	if sc.ed != ed || sc.s != s {
		sc.v = mat.NewDense(ed, s)
		sc.vt = mat.NewDense(s, ed)
		sc.w = mat.NewDense(s, ed)
		sc.hpw = mat.NewDense(s, ed)
		sc.w2 = mat.NewDense(s, ed)
	}
	if sc.c != c || sc.d != d {
		sc.sigBlocks = nil // sigmaBlocks re-allocates to the new shape
	}
	sc.n, sc.ed, sc.s, sc.c, sc.d = n, ed, s, c, d
	sc.fHist = sc.fHist[:0]
	return sc
}

func (sc *relaxScratch) release() { relaxScratchPool.Put(sc) }

// RelaxOptions configure the RELAX solvers (exact Algorithm 1 lines 1–9
// and fast Algorithm 2).
type RelaxOptions struct {
	// MaxIter is the mirror-descent iteration cap T (default 100, the
	// paper's bound for its convergence criterion).
	MaxIter int
	// Probes is the number of Rademacher vectors s (default 10, § IV-A).
	// Fast solver only.
	Probes int
	// CGTol is the CG relative-residual tolerance (default 0.1, § IV-A).
	// Fast solver only.
	CGTol float64
	// CGMaxIter caps CG iterations per solve (default 400). Fast solver
	// only.
	CGMaxIter int
	// Seed seeds the Rademacher probes. Fast solver only.
	Seed int64
	// FixedIterations, when positive, disables the convergence stop and
	// runs exactly this many mirror-descent iterations (used by the
	// performance experiments, which time a fixed iteration count).
	FixedIterations int
	// WarmStart, when non-nil, seeds mirror descent from this weight
	// vector instead of the uniform simplex — firald's round after a pool
	// append, where the previous round's converged z (reprojected onto the
	// grown simplex, see ReprojectSimplex) is a far better iterate than
	// uniform. The vector must have one nonnegative entry per pool point
	// with a positive sum; it is copied and normalized to sum 1, so
	// callers may pass z⋄ (which sums to b) directly. Resume takes
	// precedence: a checkpointed trajectory restarts from its exact
	// iterate, not from the warm seed. Fast solver only.
	WarmStart []float64
	// Resume, when non-nil, continues a previous RelaxFast solve from the
	// checkpointed state instead of starting at the uniform simplex. The
	// remaining options (Seed, Probes, tolerances, …) must match the
	// original solve for the resumed trajectory to be bit-for-bit
	// identical to an uninterrupted one. Fast solver only.
	Resume *RelaxCheckpoint
	// OnIteration, when non-nil, is called after every completed
	// mirror-descent iteration with the current resumable state, and once
	// more with Done=true when mirror descent finishes — the hook for
	// periodic checkpointing and progress reporting. The checkpoint's
	// slices alias live solver buffers and are only valid during the
	// call; Clone to persist. The hook runs on the solver goroutine, so a
	// slow hook slows the solve. Fast solver only.
	OnIteration func(*RelaxCheckpoint)
}

func (o *RelaxOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Probes <= 0 {
		o.Probes = 10
	}
	if o.CGTol <= 0 {
		o.CGTol = 0.1
	}
	if o.CGMaxIter <= 0 {
		o.CGMaxIter = 400
	}
	if o.FixedIterations > 0 {
		o.MaxIter = o.FixedIterations
	}
}

// ReprojectSimplex maps a weight vector over len(old) rows onto a pool
// grown to n rows, preserving total mass: with α = (n−len(old))/n, old
// entries are scaled by (1−α) and each new row receives total/n — the
// mass a uniform draw over the grown pool would give it. A unit simplex
// stays a unit simplex; a z⋄ summing to b keeps summing to b. The warm
// seed for RelaxOptions.WarmStart after an append.
func ReprojectSimplex(old []float64, n int) []float64 {
	m := len(old)
	if n < m {
		panic(fmt.Sprintf("firal: cannot reproject %d weights onto a smaller pool of %d", m, n))
	}
	if n == m {
		return append([]float64(nil), old...)
	}
	var total float64
	for _, v := range old {
		total += v
	}
	alpha := float64(n-m) / float64(n)
	out := make([]float64, n)
	for i, v := range old {
		out[i] = v * (1 - alpha)
	}
	fill := total / float64(n)
	for i := m; i < n; i++ {
		out[i] = fill
	}
	return out
}

// RelaxResult reports a RELAX solve.
type RelaxResult struct {
	// Z is the relaxed solution z⋄ = b·z (Algorithm 1 line 9 /
	// Algorithm 2 line 12); it sums to b. A distributed solve returns
	// this rank's window of it.
	Z []float64
	// Objectives holds the per-iteration objective estimates
	// f = Trace(Σz⁻¹ Hp) of this call's iterations (a resumed solve's
	// earlier iterations are not repeated) — the Fig. 4 curves.
	Objectives []float64
	// Iterations is the number of mirror-descent iterations executed.
	Iterations int
	// CGIterations is the total number of CG iterations across all solves
	// (fast solver; zero for exact).
	CGIterations int
	// Timings attributes wall-clock time to phases: "precond", "cg",
	// "gradient", "other" (fast), or "dense"/"gradient" (exact). A
	// distributed solve adds "comm", which can overlap the phase that
	// issued each collective.
	Timings *timing.Phases
}

// Mirror-descent constants: beta0 scales the learning-rate schedule
// β_t = beta0 / (‖g_t‖∞ √t), and objTol stops a solve once the relative
// change of the objective falls below it (§ IV-A).
const (
	beta0  = 1
	objTol = 1e-4
)

// mirrorStep applies the entropic mirror-descent update of Algorithm 1
// lines 7–8 (z_i ← z_i e^{−β g_i}, renormalized), with β_t scaled by the
// gradient's ∞-norm for a scale-free schedule. z and g are this rank's
// slices; the ∞-norm and the normalizing sum are reduced over the group.
//
// A non-finite ∞-norm or normalizing sum returns an error wrapping
// ErrNonFinite; both are replicated, so every rank returns it together.
//
//firal:hotpath
func mirrorStep(cm Collective, z, g []float64, t int) error {
	gmax := 0.0
	for _, v := range g {
		if a := math.Abs(v); a > gmax || a != a {
			gmax = a
		}
	}
	gmax = cm.AllreduceScalar(gmax, mpi.Max)
	if math.IsNaN(gmax) || math.IsInf(gmax, 0) {
		return fmt.Errorf("%w: mirror step %d gradient ∞-norm %g", ErrNonFinite, t, gmax)
	}
	if gmax == 0 {
		return nil
	}
	beta := beta0 / (gmax * math.Sqrt(float64(t)))
	var sum float64
	for i := range z {
		z[i] *= math.Exp(-beta * g[i])
		sum += z[i]
	}
	sum = cm.AllreduceScalar(sum, mpi.Sum)
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("%w: mirror step %d normalizing sum %g", ErrNonFinite, t, sum)
	}
	inv := 1 / sum
	for i := range z {
		z[i] *= inv
	}
	return nil
}

// traceFromProbesT is Hutchinson's estimator with Rademacher probes
// (§ III-A): Trace(A) ≈ (1/s) Σ_j v_jᵀ (A v_j), from a probe block and
// its image, both transposed (s×n, row j = probe j — the layout of the
// block-CG path). This is how Algorithm 2 reuses the CG solutions: the
// same probe block serves the trace estimates of all n gradient entries.
func traceFromProbesT(vt, avt *mat.Dense) float64 {
	if vt.Rows != avt.Rows || vt.Cols != avt.Cols {
		panic("firal: probe shape mismatch")
	}
	var acc float64
	for j := 0; j < vt.Rows; j++ {
		acc += mat.Dot(vt.Row(j), avt.Row(j))
	}
	return acc / float64(vt.Rows)
}

// relConv reports whether the objective change between prev and cur is
// below tol, relative to |prev|. Used by the exact solver, whose
// objective is deterministic.
func relConv(prev, cur, tol float64) bool {
	if math.IsInf(prev, 0) {
		return false
	}
	return math.Abs(prev-cur) <= tol*math.Max(1e-300, math.Abs(prev))
}

// StochasticConverged is the windowed form of the paper's stopping rule
// for the fast solver: the Hutchinson objective estimate is redrawn every
// iteration, so a pointwise relative-change test never fires through the
// estimator noise. We instead compare the means of two consecutive
// 5-iteration windows and stop when the change is below tol relative to
// the level, or below half the within-window standard deviation (the
// trajectory has plateaued to within estimator noise).
func StochasticConverged(f []float64, tol float64) bool {
	const w = 5
	if len(f) < 2*w {
		return false
	}
	mean := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += x
		}
		return m / float64(len(v))
	}
	m1 := mean(f[len(f)-2*w : len(f)-w])
	m2 := mean(f[len(f)-w:])
	diff := math.Abs(m2 - m1)
	if diff <= tol*math.Abs(m1) {
		return true
	}
	last := f[len(f)-w:]
	var sd float64
	for _, x := range last {
		sd += (x - m2) * (x - m2)
	}
	sd = math.Sqrt(sd / float64(w-1))
	return diff <= 0.5*sd
}

// RelaxFast runs the fast RELAX solve of Algorithm 2: Hutchinson gradient
// estimation with s Rademacher probes, matrix-free Σz and Hp matvecs
// (Lemma 2), and CG preconditioned by the block-diagonal B(Σz)⁻¹. The
// context is checked at every mirror-descent iteration and inside the CG
// solves, so a cancellation or deadline aborts mid-RELAX with ctx.Err().
// It is RelaxGroup on one rank.
//
// The probe block advances through krylov.SolveBlockInto and the
// multi-RHS hessian kernels: every CG iteration, the Hp·W products, and
// the Eq. 12 gradient accumulation each visit the pool ONCE for all s
// probes. A streamed pool is therefore decoded O(iterations) times per
// mirror-descent step rather than O(probes·iterations) — the per-column
// arithmetic is unchanged (bit-for-bit with the historical per-column
// sweeps), only the sweep sharing is new.
func RelaxFast(ctx context.Context, p *Problem, b int, o RelaxOptions) (*RelaxResult, error) {
	return RelaxGroup(ctx, single(p), p, b, o)
}

// RelaxGroup runs the fast RELAX solve on one rank of g, whose pool slice
// is p.Pool: the paper's distributed Algorithm 2 (§ III-C). Rank 0 draws
// the probe block and broadcasts it, and the Σz blocks, the matvec
// partials and the mirror-step scalars are allreduced; everything else
// is replicated arithmetic, so with the same seed every rank count walks
// the serial probe sequence. The result's Z is this rank's window of z⋄.
//
// WarmStart and Resume.Z are global vectors (every rank passes the same
// one) and OnIteration receives global checkpoints, gathered from all
// ranks — so a checkpoint resumes under any rank count, and the hook must
// be set on every rank or on none.
//
//firal:hotpath
func RelaxGroup(ctx context.Context, g Group, p *Problem, b int, o RelaxOptions) (*RelaxResult, error) {
	o.defaults()
	n, ed := p.N(), p.Ed()
	s := o.Probes
	cm := g.Comm
	rng := rnd.New(o.Seed)
	z := make([]float64, n) //firal:allow(alloc) the returned weights, once per solve
	mat.Fill(z, 1/float64(g.Total))
	if o.WarmStart != nil && o.Resume == nil {
		if len(o.WarmStart) != g.Total {
			return nil, fmt.Errorf("firal: warm start has %d weights, pool has %d", len(o.WarmStart), g.Total)
		}
		var sum float64
		for _, v := range o.WarmStart {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("firal: warm start weights must be nonnegative, got %g", v)
			}
			sum += v
		}
		if !(sum > 0) {
			return nil, fmt.Errorf("firal: warm start weights sum to %g, want > 0", sum)
		}
		copy(z, g.local(o.WarmStart, n))
		mat.Scal(1/sum, z)
	}
	res := &RelaxResult{Timings: timing.New()}
	ph := res.Timings

	start := 1
	if o.Resume != nil {
		if len(o.Resume.Z) != g.Total {
			return nil, fmt.Errorf("%w: checkpoint has %d weights, pool has %d", ErrBadCheckpoint, len(o.Resume.Z), g.Total)
		}
		copy(z, g.local(o.Resume.Z, n))
		start = o.Resume.Iteration + 1
		res.Iterations = o.Resume.Iteration
		res.CGIterations = o.Resume.CGIterations
		if o.Resume.Done {
			// Mirror descent already finished; only the b· scaling of
			// line 12 remains. The caller re-runs ROUND on the restored
			// final iterate.
			res.Z = z
			mat.Scal(float64(b), res.Z)
			return res, nil
		}
	}

	// All per-iteration buffers are hoisted — drawn from the pooled
	// scratch, so consecutive same-shaped selections reuse them across
	// calls — and every solver below draws its transient scratch from ws,
	// including the preconditioner state, whose Cholesky factors are
	// refactored in place each iteration. The mirror-descent loop is
	// therefore allocation-free after the first iteration (aside from the
	// recorded histories).
	sc := getRelaxScratch(n, ed, s, p.C(), p.D())
	defer sc.release()
	ws := sc.ws
	gr := sc.g
	v, vt, w, hpw, w2 := sc.v, sc.vt, sc.w, sc.hpw, sc.w2

	cgCtx := cm.SolverContext(ctx)
	cgOpt := krylov.Options{Tol: o.CGTol, MaxIter: o.CGMaxIter, Workspace: ws}
	poolMV := krylov.BlockOp(p.poolMatVecBlock(ws, cm))
	// The operator closes over z, which the mirror step updates in place.
	sigmaMV := krylov.BlockOp(p.sigmaMatVecBlock(ws, cm, z))
	bp := sc.bp
	precond := krylov.BlockOp(bp.ApplyBlock)

	// Rank 0 owns the probe stream; the others receive each block.
	root := cm.Rank() == 0
	if o.Resume != nil {
		// Restore the objective history so convergence decisions replay
		// identically, and fast-forward the probe stream: iteration t of
		// the resumed run must see exactly the Rademacher block iteration
		// t of the uninterrupted run saw, whatever rank count either used.
		sc.fHist = append(sc.fHist, o.Resume.FHist...) //firal:allow(alloc) resume path, once per run
		for t := 1; t < start && root; t++ {
			rng.Rademacher(v.Data)
		}
	}
	resumed := len(sc.fHist)

	for t := start; t <= o.MaxIter; t++ {
		if err := cm.Cancelled(ctx, p.Pool.Err()); err != nil {
			return nil, err
		}
		// Line 4: fresh Rademacher probe block V ∈ R^{dc×s}, drawn in the
		// historical ẽd×s order, broadcast, and transposed into the
		// contiguous-probe layout the block solver works in.
		stop := ph.Start("other")
		if root {
			rng.Rademacher(v.Data)
		}
		stop()
		cm.Bcast(0, v.Data)
		stop = ph.Start("other")
		for j := 0; j < s; j++ {
			v.Col(vt.Row(j), j)
		}
		stop()

		// Line 5: block-diagonal preconditioner for Σz, refactored into the
		// state's persistent storage.
		sig, err := g.sigmaBlocks(ws, p, sc.sigBlocks, z, p.labeledBlocks(), ph, "precond")
		sc.sigBlocks = sig
		if err != nil {
			return nil, err
		}
		stop = ph.Start("precond")
		err = bp.Update(sc.sigBlocks)
		stop()
		if err != nil {
			return nil, err
		}

		// Line 6: W ← Σz⁻¹ V by lockstep block CG. The solve starts from
		// W = 0 whatever the buffer held, so reuse brings no warm start,
		// and its initial residual is V itself: one Σz·block application —
		// one pool sweep — per CG iteration and none before the first.
		// Every rank runs the same recurrences on replicated vectors, so
		// the convergence masks, and with them the collectives entered,
		// agree.
		stop = ph.Start("cg")
		sc.cg = krylov.SolveBlockInto(cgCtx, sigmaMV, precond, vt, w, sc.cg, cgOpt)
		res.CGIterations += krylov.TotalIterations(sc.cg)
		stop()
		if err := krylov.FirstError(sc.cg); err != nil {
			return nil, err
		}

		// Line 7: W ← Hp W in one multi-RHS sweep; also yields the free
		// objective estimate f ≈ (1/s) Σ_j v_jᵀ Σz⁻¹ Hp v_j =
		// (1/s) Σ_j v_jᵀ (Hp w_j) by symmetry of Σz and Hp.
		stop = ph.Start("gradient")
		poolMV(hpw, w)
		f := traceFromProbesT(vt, hpw)
		stop()

		// Line 8: W ← Σz⁻¹ W by the second lockstep block CG.
		stop = ph.Start("cg")
		sc.cg = krylov.SolveBlockInto(cgCtx, sigmaMV, precond, hpw, w2, sc.cg, cgOpt)
		res.CGIterations += krylov.TotalIterations(sc.cg)
		stop()
		if err := krylov.FirstError(sc.cg); err != nil {
			return nil, err
		}

		// Line 9: g_i ← −(1/s) Σ_j v_jᵀ H_i w_j over the local pool — all
		// probes accumulated in one sweep.
		stop = ph.Start("gradient")
		mat.Fill(gr, 0)
		hessian.QuadAccumBlockWS(ws, p.Pool, gr, vt, w2, -1/float64(s))
		stop()

		// Lines 10–11: entropic mirror-descent update.
		stop = ph.Start("other")
		err = mirrorStep(cm, z, gr, t)
		stop()
		if err != nil {
			return nil, err
		}

		res.Iterations = t
		sc.fHist = append(sc.fHist, f) //firal:allow(alloc) recorded history, one float per iteration
		if o.OnIteration != nil {
			// A read that failed in this iteration left zero-filled rows
			// behind; the agreed poll finds it before anything computed
			// from them is published.
			if err := cm.Cancelled(ctx, p.Pool.Err()); err != nil {
				return nil, err
			}
			ck := RelaxCheckpoint{Iteration: t, Z: cm.Allgatherv(z), FHist: sc.fHist, CGIterations: res.CGIterations}
			if err := cm.Err(); err != nil {
				return nil, err // never publish a gather that failed
			}
			o.OnIteration(&ck)
		}
		// f is replicated, so the windowed stop fires on every rank at once.
		if o.FixedIterations == 0 && StochasticConverged(sc.fHist, objTol) {
			break
		}
	}
	if o.OnIteration != nil {
		// Final Done checkpoint: a caller interrupted during the ROUND
		// phase resumes with mirror descent skipped. Nothing has read the
		// pool since the last iteration's poll, so it needs none of its
		// own.
		ck := RelaxCheckpoint{Iteration: res.Iterations, Done: true, Z: cm.Allgatherv(z), FHist: sc.fHist, CGIterations: res.CGIterations}
		if err := cm.Err(); err != nil {
			return nil, err
		}
		o.OnIteration(&ck)
	}

	res.Objectives = slices.Clone(sc.fHist[resumed:]) //firal:allow(alloc) result history, once per solve

	// Line 12: z⋄ ← b·z.
	res.Z = z
	mat.Scal(float64(b), res.Z)
	return res, nil
}
