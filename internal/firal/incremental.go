package firal

import (
	"context"
	"fmt"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/timing"
)

// Incremental carries a selection session's Fisher state between rounds
// so that round t+1 costs what changed, not what exists. After a full
// RELAX+ROUND selection over a pool of n points, the converged weights
// define the per-class diagonal blocks of Σ⋄ = Hz + Ho that seed the
// next ROUND. A from-scratch round rebuilds them with an O(n·c·d²) pool
// sweep; an Incremental instead maintains the (Σ⋄)_k and (Ho)_k blocks
// across three kinds of pool delta:
//
//   - AddLabel: a labeled point arrives. (Ho)_k and (Σ⋄)_k gain
//     γ_k·x·xᵀ, O(d²) per class.
//   - Tombstone: a pool point leaves. Its z-mass is removed from
//     (Σ⋄)_k, O(d²) per class.
//   - AppendRows: Δn rows arrive. The previous weights are reprojected
//     onto the grown simplex (see ReprojectSimplex), the pool Gram is
//     rescaled in place, and only the appended window is swept
//     (hessian.BlockDiagAccumRange) — O(Δn·c·d²). No full-pool pass.
//
// Select then builds the ROUND state from the maintained blocks through
// the constructor RoundFast uses, O(c·d³) with no Gram assembly
// (Refine == 0), or runs a warm-started RELAX first (Refine > 0). The
// delta path's selections match the from-scratch path at the same
// weights: both evaluate the same Eq. 17 scores up to the O(1e-13)
// summation-order noise of the rescaled Gram, far below the argmax
// score gaps.
//
// An Incremental is owned by one goroutine.
type Incremental struct {
	p   *Problem
	b   int
	eta float64

	z    []float64    // z⋄ over current pool rows; Σz ≤ b (tombstones remove mass)
	dead []bool       // tombstoned rows, excluded from every Select
	sig  []*mat.Dense // maintained (Σ⋄)_k = pool Gram at z + (Ho)_k
	ho   []*mat.Dense // maintained (Ho)_k (own copies; AddLabel mutates them)

	ws     *mat.Workspace
	rowBuf []float64
	st     *RoundState // recycled across Selects
}

// NewIncremental captures the session state after a converged selection:
// zstar are the RELAX weights z⋄ over p's pool (summing to b, as
// RelaxResult.Z reports them). The Σ⋄ blocks are assembled once here —
// the last full-pool sweep the session needs — and the labeled blocks
// are deep-copied so label arrivals never mutate p's cache. eta ≤ 0
// selects p.DefaultEta().
func NewIncremental(p *Problem, zstar []float64, b int, eta float64) (*Incremental, error) {
	if len(zstar) != p.N() {
		return nil, fmt.Errorf("firal: incremental state needs %d weights, got %d", p.N(), len(zstar))
	}
	if b <= 0 {
		return nil, fmt.Errorf("firal: incremental state needs a positive batch size, got %d", b)
	}
	if eta <= 0 {
		eta = p.DefaultEta()
	}
	inc := &Incremental{
		p:   p,
		b:   b,
		eta: eta,
		z:   append([]float64(nil), zstar...),
		ws:  mat.NewWorkspace(),
	}
	d, c := p.D(), p.C()
	inc.dead = make([]bool, p.N())
	inc.rowBuf = make([]float64, d)
	inc.sig = p.SigmaBlocksInto(inc.ws, nil, inc.z)
	lab := p.labeledBlocks()
	inc.ho = make([]*mat.Dense, c)
	for k := 0; k < c; k++ {
		inc.ho[k] = mat.NewDense(d, d)
		inc.ho[k].CopyFrom(lab[k])
	}
	return inc, nil
}

// Problem returns the current selection problem (its pool is replaced by
// AppendRows). Callers that run Refine > 0 after label arrivals should
// keep the problem's labeled set current themselves — AddLabel maintains
// the block-diagonal ROUND state, not the exact labeled matvec RELAX
// uses.
func (inc *Incremental) Problem() *Problem { return inc.p }

// Z returns the maintained weights z⋄ (live; do not mutate).
func (inc *Incremental) Z() []float64 { return inc.z }

// Eta returns the ROUND learning rate the state was built with.
func (inc *Incremental) Eta() float64 { return inc.eta }

// AddLabel folds a newly labeled point (features x, reduced
// probabilities h) into the maintained state: per class,
// (Ho)_k += γ_k·x·xᵀ and (Σ⋄)_k += γ_k·x·xᵀ. O(c·d²) total,
// allocation-free warm.
func (inc *Incremental) AddLabel(x, h []float64) {
	for k := range inc.ho {
		gamma := h[k] * (1 - h[k])
		if gamma == 0 {
			continue
		}
		inc.ho[k].AddOuter(gamma, x)
		inc.sig[k].AddOuter(gamma, x)
	}
}

// Tombstone removes pool row i from the session: its z-mass leaves
// (Σ⋄)_k, O(c·d²), and the row is excluded from every future Select.
func (inc *Incremental) Tombstone(i int) error {
	if i < 0 || i >= len(inc.z) {
		return fmt.Errorf("firal: tombstone index %d out of range [0, %d)", i, len(inc.z))
	}
	if inc.dead[i] {
		return nil
	}
	inc.dead[i] = true
	zi := inc.z[i]
	inc.z[i] = 0
	if zi == 0 {
		return nil
	}
	x := inc.p.Pool.Row(i, inc.rowBuf)
	h := inc.p.Pool.Probs().Row(i)
	for k := range inc.sig {
		gamma := h[k] * (1 - h[k])
		if zi*gamma == 0 {
			continue
		}
		inc.sig[k].AddOuter(-zi*gamma, x)
	}
	return nil
}

// AppendRows absorbs a grown pool: pool must serve the current rows at
// their current indices followed by the appended rows (the LiveSource
// contract). The maintained weights are reprojected onto the grown
// simplex, the pool part of (Σ⋄)_k is rescaled in place, and only the
// appended window [nOld, nNew) is swept — the delta-only Fisher pass.
func (inc *Incremental) AppendRows(pool hessian.Pool) error {
	nOld := len(inc.z)
	nNew := pool.N()
	if pool.D() != inc.p.D() || pool.C() != inc.p.C() {
		return fmt.Errorf("firal: appended pool is %d-dim %d-class, want %d-dim %d-class",
			pool.D(), pool.C(), inc.p.D(), inc.p.C())
	}
	if nNew < nOld {
		return fmt.Errorf("firal: appended pool has %d rows, fewer than the current %d", nNew, nOld)
	}
	if nNew == nOld {
		inc.p = NewProblem(inc.p.Labeled, pool)
		return nil
	}
	alpha := float64(nNew-nOld) / float64(nNew)
	inc.z = ReprojectSimplex(inc.z, nNew)
	inc.dead = append(inc.dead, make([]bool, nNew-nOld)...)

	// Pool Gram rescale + delta sweep: (Σ⋄−Ho) ← (1−α)(Σ⋄−Ho) + ΔGram.
	for k := range inc.sig {
		inc.sig[k].AddScaled(-1, inc.ho[k])
		inc.sig[k].Scale(1 - alpha)
	}
	hessian.BlockDiagAccumRange(inc.ws, pool, inc.sig, inc.z, nOld, nNew, 1)
	for k := range inc.sig {
		inc.sig[k].AddScaled(1, inc.ho[k])
	}
	inc.p = NewProblem(inc.p.Labeled, pool)
	return nil
}

// SelectOptions configure an incremental selection round.
type SelectOptions struct {
	// Refine, when positive, runs this many warm-started mirror-descent
	// iterations before rounding (one full RELAX pass per iteration). Zero
	// is the pure delta round: ROUND starts directly from the maintained
	// blocks with no pool-scale RELAX work.
	Refine int
	// Relax configures the Refine solve; WarmStart and FixedIterations are
	// overridden from the maintained weights and Refine.
	Relax RelaxOptions
	// Exclude lists additional pool indices this round must not select
	// (tombstoned rows are always excluded).
	Exclude []int
}

// Select runs one incremental ROUND over the current pool. With
// o.Refine == 0 the round builds its state from the maintained blocks
// and costs b·O(n·c·d²) scoring sweeps plus O(c·d³) setup — no RELAX, no
// Gram assembly; the result is identical (argmax-for-argmax) to
// rebuilding Σ⋄ from scratch at the maintained weights. With o.Refine > 0 a
// warm-started RELAX refines the weights first, after which the
// maintained blocks are rebuilt at the new weights (one full pool
// sweep — refinement is a paid upgrade, not a delta). Select does not
// mark its own selections: callers exclude or tombstone them when the
// labels arrive.
func (inc *Incremental) Select(ctx context.Context, o SelectOptions) (*Result, error) {
	n := inc.p.N()
	res := &Result{Eta: inc.eta}
	if o.Refine > 0 {
		ro := o.Relax
		ro.WarmStart = inc.z
		ro.FixedIterations = o.Refine
		relax, err := RelaxFast(ctx, inc.p, inc.b, ro)
		if err != nil {
			return nil, err
		}
		copy(inc.z, relax.Z)
		for i, d := range inc.dead {
			if d {
				inc.z[i] = 0
			}
		}
		// Rebuild the maintained blocks at the refined weights: one full
		// sweep — the state is again exact for the next delta round.
		inc.sig = single(inc.p).sigmaBlocks(inc.ws, inc.p, inc.sig, inc.z, inc.ho, nil, "")
		res.Relax = relax
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	round := &RoundResult{Timings: timing.New()}
	st, err := newRoundStateInto(inc.st, inc.sig, inc.ho, inc.b, inc.eta, round.Timings)
	if err != nil {
		return nil, err
	}
	inc.st = st

	sc := getRoundScratch(n, inc.p.D(), inc.p.C())
	defer roundScratchPool.Put(sc)
	copy(sc.selected, inc.dead)
	g := single(inc.p)
	g.exclude(sc.selected, o.Exclude)
	if err := g.roundLoop(ctx, inc.p.Pool, st, inc.b, sc, round); err != nil {
		return nil, err
	}
	res.Selected = round.Selected
	res.Round = round
	return res, nil
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
