package firal

import (
	"context"
	"math"
	"sync"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// RoundState carries the per-class block matrices of the diagonal ROUND
// step (Algorithm 3). All blocks are d×d; there are c of each, so the
// state costs O(cd²) — this is what replaces Exact-FIRAL's dense ẽd×ẽd
// matrices. Every rank of a group holds an identical state built from
// allreduced blocks; only the eigenvalue work of Eigvals is sharded.
type RoundState struct {
	eta   float64
	b     int
	d, c  int
	edF   float64
	sig   []*mat.Dense // (Σ⋄)_k
	ho    []*mat.Dense // (Ho)_k
	isqrt []*mat.Dense // (Σ⋄)_k^{-1/2}
	binv  []*mat.Dense // (B_t)⁻¹_k
	hacc  []*mat.Dense // (H)_k accumulated (line 8)

	// Persistent scratch, reused across the b inner iterations so the hot
	// Scores/Eigvals/FinishUpdate loop stays allocation-free after
	// warm-up. A RoundState is owned by one goroutine.
	ws     *mat.Workspace
	tmp    *mat.Dense   // d×d product scratch
	pk     *mat.Dense   // d×d product scratch (H̃_k)
	chol   mat.Cholesky // persistent factor storage for the (B_t)⁻¹ rebuild
	pks    []*mat.Dense // per-class P_k = B⁻¹_k (Σ⋄)_k B⁻¹_k (Scores)
	xmBuf  []float64    // block×d Scores product scratch (lazily sized)
	qp, qb []float64    // block Scores row-dot scratch
	lamBuf []float64    // concatenated eigenvalues (Eigvals)
	valBuf []float64    // single-block eigenvalues (Eigvals)
	nuBuf  []float64    // scaled eigenvalues (FinishUpdate)
}

// NewRoundState performs lines 3–5 of Algorithm 3 given the diagonal
// blocks of Σ⋄ and Ho: it builds the inverse square roots (Σ⋄)_k^{-1/2}
// (for the eigenvalue transform of line 9), the initial (B_1)⁻¹_k, and
// zeroed accumulators (H)_k. The blocks are retained by the state and
// must not be mutated by the caller afterwards; the state itself only
// reads them (callers may pass cached blocks they also keep).
func NewRoundState(sig, ho []*mat.Dense, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	return newRoundStateInto(nil, sig, ho, b, eta, ph)
}

// newRoundStateInto builds a RoundState reusing a previous state's
// storage (pooled by RoundGroup, kept by Incremental): when prev matches
// the block shape, its scratch, accumulators, and inverse-block storage
// are recycled and only the genuinely input-dependent eigendecompositions
// behind (Σ⋄)_k^{-1/2} allocate. A nil or mismatched prev builds fresh
// storage.
func newRoundStateInto(prev *RoundState, sig, ho []*mat.Dense, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	c := len(sig)
	if c == 0 || len(ho) != c {
		panic("firal: RoundState needs matching non-empty block sets")
	}
	d := sig[0].Rows
	st := prev
	if st == nil || st.d != d || st.c != c {
		st = &RoundState{
			d: d, c: c,
			hacc:  make([]*mat.Dense, c),
			binv:  make([]*mat.Dense, c),
			isqrt: make([]*mat.Dense, c),
			ws:    mat.NewWorkspace(),
			tmp:   mat.NewDense(d, d),
			pk:    mat.NewDense(d, d),
		}
		for k := 0; k < c; k++ {
			st.hacc[k] = mat.NewDense(d, d)
		}
	}
	st.eta, st.b, st.edF = eta, b, float64(d*c)
	st.sig, st.ho = sig, ho

	// Line 4: the (Σ⋄)_k^{-1/2} transforms.
	stop := ph.Start("eig")
	for k := 0; k < c; k++ {
		sf, err := mat.NewSPDFuncs(st.sig[k], 1e-10)
		if err != nil {
			stop()
			return nil, err
		}
		st.isqrt[k] = sf.InvSqrt()
	}
	stop()

	stop = ph.Start("other")
	defer stop()
	sqrtEd := math.Sqrt(st.edF)
	for k := 0; k < c; k++ {
		b1 := st.tmp
		b1.CopyFrom(st.sig[k])
		b1.Scale(sqrtEd)
		b1.AddScaled(eta/float64(b), st.ho[k])
		if _, err := st.chol.FactorRidge(b1, choleskyRidge); err != nil {
			return nil, err
		}
		st.binv[k] = st.chol.InverseInto(st.ws, st.binv[k])
		st.hacc[k].Zero()
	}
	return st, nil
}

// Scores evaluates the equivalent ROUND objective of Proposition 4 /
// Eq. 17 for every point of pool (scores to maximize):
//
//	r_i = Σ_k γ_ik · x_iᵀ B⁻¹_k (Σ⋄)_k B⁻¹_k x_i / (1 + η γ_ik x_iᵀ B⁻¹_k x_i)
//
// with γ_ik = h_ik(1 − h_ik). The pool is visited in row blocks
// (outermost) with all c classes evaluated per block, so a streamed pool
// is read exactly once per rescoring pass; each class contributes two
// batched GEMM + row-dot passes per block and the cost is O(n c d²) per
// round (Table II). The per-class P_k products are hoisted into
// persistent state before the sweep.
//
//firal:hotpath
func (st *RoundState) Scores(pool hessian.Pool, dst []float64) {
	n := pool.N()
	if len(dst) != n {
		panic("firal: scores destination length mismatch")
	}
	mat.Fill(dst, 0)
	if n == 0 {
		return
	}
	// P_k = B⁻¹_k (Σ⋄)_k B⁻¹_k, shared by every block of this pass.
	//firal:allow(alloc) — lazy init, once per state
	if st.pks == nil {
		st.pks = make([]*mat.Dense, st.c)
		for k := range st.pks {
			st.pks[k] = mat.NewDense(st.d, st.d)
		}
	}
	for k := 0; k < st.c; k++ {
		mat.Mul(st.tmp, st.binv[k], st.sig[k])
		mat.Mul(st.pks[k], st.tmp, st.binv[k])
	}
	h := pool.Probs()
	bs := min(pool.BlockRows(), n)
	// Guard every buffer: xmBuf's capacity can be rounded up by the
	// allocator while qp/qb land exactly on their size class, so a state
	// reused with a slightly larger block size could pass an xmBuf-only
	// check and then overrun qp/qb.
	//firal:allow(alloc) — amortized: regrows only when the block size grows
	if cap(st.xmBuf) < bs*st.d || cap(st.qp) < bs {
		st.xmBuf = make([]float64, bs*st.d)
		st.qp = make([]float64, bs)
		st.qb = make([]float64, bs)
	}
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		m := hi - lo
		xb := pool.Block(st.ws, lo, hi)
		xm := st.ws.View(st.xmBuf[:m*st.d], m, st.d)
		qp, qb := st.qp[:m], st.qb[:m]
		for k := 0; k < st.c; k++ {
			mat.Mul(xm, xb, st.pks[k])
			mat.RowDots(qp, xb, xm)
			mat.Mul(xm, xb, st.binv[k])
			mat.RowDots(qb, xb, xm)
			for i := 0; i < m; i++ {
				hv := h.At(lo+i, k)
				gamma := hv * (1 - hv)
				if gamma == 0 {
					continue
				}
				dst[lo+i] += gamma * qp[i] / (1 + st.eta*gamma*qb[i])
			}
		}
		st.ws.PutView(xm)
		pool.PutBlock(st.ws, xb)
	}
}

// AddPoint accumulates the chosen point into (H)_k (line 8):
// (H)_k ← (H)_k + (1/b)(Ho)_k + h_k(1−h_k) x xᵀ.
//
//firal:hotpath
func (st *RoundState) AddPoint(x, h []float64) {
	for k := 0; k < st.c; k++ {
		st.hacc[k].AddScaled(1/float64(st.b), st.ho[k])
		gamma := h[k] * (1 - h[k])
		if gamma != 0 {
			st.hacc[k].AddOuter(gamma, x)
		}
	}
}

// Update performs lines 8–11 of Algorithm 3 for the chosen point (x, h)
// on one rank: AddPoint, block eigenvalues, ν bisection, and the
// (B_{t+1})⁻¹ rebuild. It returns ν_{t+1}. The ROUND loop instead calls
// AddPoint, shards Eigvals over the group's ranks, and calls
// FinishUpdate.
func (st *RoundState) Update(x, h []float64, ph *timing.Phases) (float64, error) {
	stop := ph.Start("other")
	st.AddPoint(x, h)
	stop()

	stop = ph.Start("eig")
	lam, err := st.Eigvals(0, st.c)
	stop()
	if err != nil {
		return 0, err
	}
	return st.FinishUpdate(lam, ph)
}

// Eigvals computes the eigenvalues of (H̃)_k = (Σ⋄)_k^{-1/2} (H)_k
// (Σ⋄)_k^{-1/2} for classes [kLo, kHi), concatenated (line 9). The
// returned slice is state-owned scratch, valid until the next Eigvals
// call on this state.
func (st *RoundState) Eigvals(kLo, kHi int) ([]float64, error) {
	out := st.lamBuf[:0]
	for k := kLo; k < kHi; k++ {
		mat.Mul(st.tmp, st.isqrt[k], st.hacc[k])
		mat.Mul(st.pk, st.tmp, st.isqrt[k])
		st.pk.Symmetrize()
		vals, err := mat.SymEigvalsInto(st.ws, st.valBuf, st.pk)
		if err != nil {
			return nil, err
		}
		st.valBuf = vals
		out = append(out, vals...)
	}
	st.lamBuf = out
	return out, nil
}

// FinishUpdate solves for ν_{t+1} from the full eigenvalue set (line 10)
// and rebuilds the block inverses (line 11).
func (st *RoundState) FinishUpdate(lam []float64, ph *timing.Phases) (float64, error) {
	stop := ph.Start("other")
	defer stop()
	if cap(st.nuBuf) < len(lam) {
		st.nuBuf = make([]float64, len(lam))
	}
	scaled := st.nuBuf[:len(lam)]
	for i, l := range lam {
		if l < 0 {
			l = 0 // roundoff guard: H̃ is PSD
		}
		scaled[i] = st.eta * l
	}
	nu, err := solveNu(scaled, st.edF)
	if err != nil {
		return 0, err
	}
	// Rebuild (B_{t+1})⁻¹_k in place: the persistent factor storage and
	// the retained binv blocks absorb the per-iteration Cholesky work, so
	// the rebuild allocates nothing after the state is warm.
	for k := 0; k < st.c; k++ {
		bt := st.tmp
		bt.CopyFrom(st.sig[k])
		bt.Scale(nu)
		bt.AddScaled(st.eta, st.hacc[k])
		bt.AddScaled(st.eta/float64(st.b), st.ho[k])
		if _, err := st.chol.FactorRidge(bt, choleskyRidge); err != nil {
			return 0, err
		}
		st.chol.InverseInto(st.ws, st.binv[k])
	}
	return nu, nil
}

// MinEig returns min_k λ_min((H)_k) of the accumulated selected-point
// Hessian blocks — the η-tuning criterion.
func (st *RoundState) MinEig() float64 {
	minEig := math.Inf(1)
	for _, blk := range st.hacc {
		vals, err := mat.SymEigvals(blk)
		if err != nil || len(vals) == 0 {
			return math.Inf(-1)
		}
		if vals[0] < minEig {
			minEig = vals[0]
		}
	}
	return minEig
}

// roundScratch pools RoundGroup's per-call setup: the score and selection
// vectors, the winner broadcast buffer, plus the previous RoundState and
// Σ⋄ blocks, whose storage the next same-shaped call reuses (the state
// retains the blocks, so both recycle together — a pooled state never
// outlives its blocks). Like the RELAX scratch pool this only matters for
// tiny rounds, where the setup used to rival the solve.
type roundScratch struct {
	n, d, c  int
	ws       *mat.Workspace // block-setup scratch (sigmaBlocks)
	scores   []float64
	selected []bool
	xh       []float64
	sig      []*mat.Dense
	st       *RoundState
}

var roundScratchPool = sync.Pool{New: func() any { return &roundScratch{ws: mat.NewWorkspace()} }}

func getRoundScratch(n, d, c int) *roundScratch {
	sc := roundScratchPool.Get().(*roundScratch)
	if sc.n != n {
		sc.scores = make([]float64, n)
		sc.selected = make([]bool, n)
	} else {
		for i := range sc.selected {
			sc.selected[i] = false
		}
	}
	if sc.d != d || sc.c != c {
		sc.xh = make([]float64, d+c+1) // ROUND winner: x, h, global index
		sc.sig = nil                   // sigmaBlocks re-allocates to the new shape
		sc.st = nil                    // newRoundStateInto builds fresh storage
	}
	sc.n, sc.d, sc.c = n, d, c
	return sc
}

// release returns the scratch to the pool without the state's Scores
// sweep buffers: they scale with the pool block (2 MiB at 4096×64) and
// would stay pinned in every pooled copy — one per concurrent rank —
// between selections.
func (sc *roundScratch) release() {
	if sc.st != nil {
		sc.st.xmBuf, sc.st.qp, sc.st.qb = nil, nil, nil
	}
	roundScratchPool.Put(sc)
}

// RoundFast runs the diagonal ROUND step of Algorithm 3: all Fisher
// matrices keep only their d×d diagonal blocks (Eq. 14), the low-rank
// block update of Lemma 3 turns the FTRL objective into the closed form of
// Eq. 17, and each iteration costs O(ncd² + cd³) instead of Exact-FIRAL's
// O(nc³ + c³d³) (Table II). It is RoundGroup on one rank.
func RoundFast(p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	return RoundGroup(context.Background(), single(p), p, z, b, o)
}

// RoundGroup runs the diagonal ROUND step on one rank of g, whose pool
// slice is p.Pool and z its window of z⋄: the paper's distributed
// Algorithm 3 (§ III-C). Every rank keeps the replicated O(cd²) block
// state and scores its own points; each greedy step takes a maxloc
// argmax, broadcasts the winner's (x, h), and allgathers the block
// eigenvalues computed c/p blocks per rank. o.Exclude and the returned
// selections are global pool indices, identical on every rank.
func RoundGroup(ctx context.Context, g Group, p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	if o.Eta <= 0 {
		o.Eta = p.DefaultEta()
	}
	res := &RoundResult{Timings: timing.New()}
	ph := res.Timings

	sc := getRoundScratch(p.N(), p.D(), p.C())
	defer sc.release()
	// Lines 3–5 from the global Σ⋄ blocks. The Ho blocks alias the
	// Problem's labeled-block cache, which sigmaBlocks just warmed — safe
	// because both the cache and the RoundState treat them as read-only.
	sc.sig = g.sigmaBlocks(sc.ws, p, sc.sig, z, p.labeledBlocks(), ph, "other")
	st, err := newRoundStateInto(sc.st, sc.sig, p.labeledBlocks(), b, o.Eta, ph)
	if err != nil {
		return nil, err
	}
	sc.st = st
	g.exclude(sc.selected, o.Exclude)
	if err := g.roundLoop(ctx, p.Pool, st, b, sc, res); err != nil {
		return nil, err
	}
	return res, nil
}

// roundLoop executes the greedy iterations of Algorithm 3 lines 6–11 over
// the group's pool: rescore, argmax over unselected points, and the FTRL
// state update for the winner, at most b times and never more than the
// global pool holds. sc.selected marks local points the loop must skip
// (earlier selections, the caller's exclude set) and is updated in
// place. Shared by RoundGroup and the incremental delta rounds, which
// differ only in how the entering RoundState was built.
//
//firal:hotpath
func (g Group) roundLoop(ctx context.Context, pool hessian.Pool, st *RoundState, b int, sc *roundScratch, res *RoundResult) error {
	cm := g.Comm
	scores, selected, xh := sc.scores, sc.selected, sc.xh
	n, d, c := pool.N(), pool.D(), pool.C()
	probs := pool.Probs()
	ph := res.Timings
	kLo, kHi := mpi.Partition(c, cm.Size(), cm.Rank())
	for t := 1; t <= min(b, g.Total); t++ {
		if err := cm.Cancelled(ctx); err != nil {
			return err
		}
		// Line 7: local objective, then the global argmax.
		stop := ph.Start("objective")
		st.Scores(pool, scores)
		stop()

		stop = ph.Start("other")
		best, bestV := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if scores[i] > bestV {
				best, bestV = i, scores[i]
			}
		}
		stop()
		bestV, owner, best := cm.AllreduceMaxLoc(bestV, best)
		if best < 0 {
			break // every unselected point is gone
		}

		// The owner broadcasts the winner's x, h and global index.
		stop = ph.Start("other")
		if owner == cm.Rank() {
			selected[best] = true
			copy(xh[:d], pool.Row(best, xh[:d]))
			copy(xh[d:d+c], probs.Row(best))
			xh[d+c] = float64(g.Offset + best)
		}
		stop()
		cm.Bcast(owner, xh)
		res.Selected = append(res.Selected, int(xh[d+c])) //firal:allow(alloc) result history, one entry per selection
		res.Objectives = append(res.Objectives, bestV)    //firal:allow(alloc) result history, one entry per selection

		// Line 8: accumulate (H)_k.
		stop = ph.Start("other")
		st.AddPoint(xh[:d], xh[d:d+c])
		stop()

		// Line 9: eigenvalues of this rank's blocks, gathered.
		stop = ph.Start("eig")
		lam, err := st.Eigvals(kLo, kHi)
		stop()
		if err != nil {
			return err
		}

		// Lines 10–11: ν bisection and the (B_{t+1})⁻¹ rebuild.
		nu, err := st.FinishUpdate(cm.Allgatherv(lam), ph)
		if err != nil {
			return err
		}
		res.Nu = append(res.Nu, nu) //firal:allow(alloc) result history, one entry per selection
	}
	stop := ph.Start("eig")
	res.MinEigH = st.MinEig()
	stop()
	return nil
}
