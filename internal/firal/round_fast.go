package firal

import (
	"context"
	"math"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/timing"
)

// RoundState carries the per-class block matrices of the diagonal ROUND
// step (Algorithm 3). All blocks are d×d; there are c of each, so the
// state costs O(cd²) — this is what replaces Exact-FIRAL's dense ẽd×ẽd
// matrices. Every rank of a group holds an identical state built from
// allreduced blocks and computes every class's eigendecompositions itself.
//
// B_t is kept in a per-class eigenbasis rather than as an inverse. With
// B_k = ν(Σ⋄)_k + ηH_k + (η/b)(Ho)_k, let
// M_k = Σ⋄^{-½}(ηH_k + (η/b)Ho_k)Σ⋄^{-½} = VΛVᵀ and W_k = Σ⋄^{-½}V, so
// B⁻¹_k = W_k diag(a) W_kᵀ with a_j = 1/(ν + λ_j). Then for y = xW_k
//
//	xᵀB⁻¹_k x = Σ_j y_j² a_j,   xᵀB⁻¹_k (Σ⋄)_k B⁻¹_k x = Σ_j y_j² a_j²,
//
// so both quadratic forms of Eq. 17 cost one d×d product per point.
type RoundState struct {
	eta   float64
	b     int
	d, c  int
	edF   float64
	sig   []*mat.Dense // (Σ⋄)_k
	ho    []*mat.Dense // (Ho)_k
	isqrt []*mat.Dense // (Σ⋄)_k^{-1/2}
	hot   []*mat.Dense // (Σ⋄)_k^{-1/2} (Ho)_k (Σ⋄)_k^{-1/2}
	hacc  []*mat.Dense // (H)_k accumulated (line 8)
	wt    []*mat.Dense // W_kᵀ: row j is (Σ⋄)_k^{-1/2} v_j for eigenvector v_j of M_k
	lamM  []float64    // eigenvalues of every M_k, c×d
	a, a2 []float64    // a_kj = 1/(ν + max(λ_kj, 0)) and a_kj², c×d

	// Persistent scratch, reused across the b inner iterations so the hot
	// Scores/Update loop stays allocation-free after warm-up. A RoundState
	// is owned by one goroutine.
	ws     *mat.Workspace
	tmp    *mat.Dense // d×d product scratch
	pk     *mat.Dense // d×d scratch: (H̃)_k, then M_k
	lamBuf []float64  // eigenvalues of every (H̃)_k, c×d (line 9)
	nuBuf  []float64  // scaled eigenvalues for the ν solve, c×d

	// The Scores sweep: per-worker tile products and the current row
	// block, read by scoreItems (bound once as scoreFn so the dispatch
	// does not allocate a closure).
	ybuf    []float64
	xb, h   *mat.Dense
	dst     []float64
	base, m int
	rows    int
	scoreFn func(lo, hi int)
}

// scoreTile is the row tile of the Scores sweep: a 64-row tile of a d=64
// block and its product with one W_k are 32 KiB each, so both stay in L1
// while the two weighted row norms read the product back.
const scoreTile = 64

// NewRoundState performs lines 3–5 of Algorithm 3 given the diagonal
// blocks of Σ⋄ and Ho: it builds the inverse square roots (Σ⋄)_k^{-1/2}
// (for the eigenvalue transform of line 9), the eigenbasis of the initial
// B_1 (ν_1 = √ẽd), and zeroed accumulators (H)_k. The blocks are retained
// by the state and must not be mutated by the caller afterwards; the state
// itself only reads them (callers may pass cached blocks they also keep).
func NewRoundState(sig, ho []*mat.Dense, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	return newRoundStateInto(nil, sig, ho, b, eta, ph)
}

// newRoundStateInto builds a RoundState reusing a previous state's
// storage (pooled by RoundGroup): when prev matches the block shape, all
// of its storage is recycled and the build allocates nothing. A nil or
// mismatched prev builds fresh storage.
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
			hacc:   newBlocks(c, d),
			isqrt:  newBlocks(c, d),
			hot:    newBlocks(c, d),
			wt:     newBlocks(c, d),
			lamM:   make([]float64, c*d),
			a:      make([]float64, c*d),
			a2:     make([]float64, c*d),
			ws:     mat.NewWorkspace(),
			tmp:    mat.NewDense(d, d),
			pk:     mat.NewDense(d, d),
			lamBuf: make([]float64, c*d),
			nuBuf:  make([]float64, c*d),
		}
		st.scoreFn = st.scoreItems
	}
	st.eta, st.b, st.edF = eta, b, float64(d*c)
	st.sig, st.ho = sig, ho

	// Line 4: the (Σ⋄)_k^{-1/2} transforms; line 5: the eigenbasis of
	// B_1, where H = 0 leaves M_k = (η/b)(Σ⋄)_k^{-1/2}(Ho)_k(Σ⋄)_k^{-1/2}.
	stop := ph.Start("eig")
	for k := 0; k < c; k++ {
		if err := mat.InvSqrtInto(st.ws, st.isqrt[k], st.sig[k], 1e-10); err != nil {
			stop()
			return nil, err
		}
		mat.Mul(st.tmp, st.isqrt[k], st.ho[k])
		mat.Mul(st.hot[k], st.tmp, st.isqrt[k])
		st.pk.CopyFrom(st.hot[k])
		st.pk.Scale(eta / float64(b))
		if err := st.basis(k, st.pk); err != nil {
			stop()
			return nil, err
		}
	}
	stop()

	stop = ph.Start("other")
	for _, h := range st.hacc {
		h.Zero()
	}
	st.weigh(math.Sqrt(st.edF))
	stop()
	return st, nil
}

// newBlocks returns c zeroed d×d blocks.
func newBlocks(c, d int) []*mat.Dense {
	out := make([]*mat.Dense, c)
	for k := range out {
		out[k] = mat.NewDense(d, d)
	}
	return out
}

// basis eigendecomposes M_k, given in m (which it overwrites), into the
// class's eigenvalues lamM and its mapped-back basis W_kᵀ.
func (st *RoundState) basis(k int, m *mat.Dense) error {
	d := st.d
	if _, _, err := mat.SymEigInto(st.ws, st.lamM[k*d:(k+1)*d:(k+1)*d], m, m); err != nil {
		return err
	}
	mat.MulTransA(st.wt[k], m, st.isqrt[k])
	return nil
}

// weigh sets the eigenbasis weights of B = ν(Σ⋄) + ηH + (η/b)Ho.
func (st *RoundState) weigh(nu float64) {
	for i, l := range st.lamM {
		if l < 0 {
			l = 0 // roundoff guard: M_k is PSD
		}
		st.a[i] = 1 / (nu + l)
		st.a2[i] = st.a[i] * st.a[i]
	}
}

// Scores evaluates the equivalent ROUND objective of Proposition 4 /
// Eq. 17 for every point of pool (scores to maximize):
//
//	r_i = Σ_k γ_ik · x_iᵀ B⁻¹_k (Σ⋄)_k B⁻¹_k x_i / (1 + η γ_ik x_iᵀ B⁻¹_k x_i)
//
// with γ_ik = h_ik(1 − h_ik). The pool is visited in row blocks
// (outermost), so a streamed pool is read exactly once per rescoring
// pass. Workers split each block into runs of 64-row tiles; per tile and
// class one product y = x·W_k gives both quadratic forms as weighted row
// norms of y (see RoundState), so no block-sized product is materialised
// and the cost is one GEMM, O(n c d²), per round (Table II). Each point is
// scored by one worker in class order, so the scores do not depend on the
// worker count.
//
//firal:hotpath
func (st *RoundState) Scores(pool hessian.Pool, dst []float64) {
	n := pool.N()
	if len(dst) != n {
		panic("firal: scores destination length mismatch")
	}
	if n == 0 {
		return
	}
	bs := min(pool.BlockRows(), n)
	items := min(parallel.Workers(), (bs+scoreTile-1)/scoreTile)
	//firal:allow(alloc) — amortized: regrows only when the worker count grows
	if len(st.ybuf) < items*scoreTile*st.d {
		st.ybuf = make([]float64, items*scoreTile*st.d)
	}
	st.h, st.dst = pool.Probs(), dst
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		st.xb, st.base, st.m = pool.Block(st.ws, lo, hi), lo, hi-lo
		tiles := (st.m + scoreTile - 1) / scoreTile
		per := (tiles + items - 1) / items
		st.rows = per * scoreTile
		parallel.ForChunkMin((tiles+per-1)/per, 1, st.scoreFn)
		pool.PutBlock(st.ws, st.xb)
	}
	st.xb, st.h, st.dst = nil, nil, nil
}

// scoreItems scores Scores items [lo, hi) of the current block: item it
// covers block rows [it·rows, (it+1)·rows) and uses tile scratch it.
//
//firal:hotpath
func (st *RoundState) scoreItems(lo, hi int) {
	tile := scoreTile * st.d
	for it := lo; it < hi; it++ {
		y := st.ybuf[it*tile : (it+1)*tile]
		for r0 := it * st.rows; r0 < min((it+1)*st.rows, st.m); r0 += scoreTile {
			st.scoreTile(y, r0, min(r0+scoreTile, st.m))
		}
	}
}

// scoreTile writes the scores of block rows [r0, r1), using y for the
// tile's product with each W_k.
//
//firal:hotpath
func (st *RoundState) scoreTile(y []float64, r0, r1 int) {
	d, xs := st.d, st.xb.Stride
	xt := mat.Dense{Rows: r1 - r0, Cols: d, Stride: xs, Data: st.xb.Data[r0*xs:]}
	yt := mat.Dense{Rows: r1 - r0, Cols: d, Stride: d, Data: y}
	out := st.dst[st.base+r0 : st.base+r1]
	clear(out)
	for k := 0; k < st.c; k++ {
		mat.MulTransBInOrder(&yt, &xt, st.wt[k], true)
		a, a2 := st.a[k*d:(k+1)*d], st.a2[k*d:(k+1)*d]
		for i := range out {
			hv := st.h.At(st.base+r0+i, k)
			gamma := hv * (1 - hv)
			if gamma == 0 {
				continue
			}
			var qb, qp float64
			for j, v := range y[i*d : (i+1)*d] {
				v2 := v * v
				qb += v2 * a[j]
				qp += v2 * a2[j]
			}
			out[i] += gamma * qp / (1 + st.eta*gamma*qb)
		}
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

// Update performs lines 8–11 of Algorithm 3 for the chosen point (x, h):
// AddPoint; per class the eigenvalues of (H̃)_k = (Σ⋄)_k^{-1/2} (H)_k
// (Σ⋄)_k^{-1/2} (line 9) and the eigenbasis of M_k; the ν bisection over
// all the (H̃)_k eigenvalues (line 10); and the eigenbasis weights of
// B_{t+1} (line 11). It returns ν_{t+1}.
func (st *RoundState) Update(x, h []float64, ph *timing.Phases) (float64, error) {
	stop := ph.Start("other")
	st.AddPoint(x, h)
	stop()

	stop = ph.Start("eig")
	d := st.d
	for k := 0; k < st.c; k++ {
		mat.Mul(st.tmp, st.isqrt[k], st.hacc[k])
		mat.Mul(st.pk, st.tmp, st.isqrt[k])
		st.pk.Symmetrize()
		if _, err := mat.SymEigvalsInto(st.ws, st.lamBuf[k*d:(k+1)*d:(k+1)*d], st.pk); err != nil {
			stop()
			return 0, err
		}
		// M_k = η(H̃)_k + (η/b)(Σ⋄)_k^{-1/2}(Ho)_k(Σ⋄)_k^{-1/2}.
		st.pk.Scale(st.eta)
		st.pk.AddScaled(st.eta/float64(st.b), st.hot[k])
		if err := st.basis(k, st.pk); err != nil {
			stop()
			return 0, err
		}
	}
	stop()

	stop = ph.Start("other")
	defer stop()
	for i, l := range st.lamBuf {
		if l < 0 {
			l = 0 // roundoff guard: H̃ is PSD
		}
		st.nuBuf[i] = st.eta * l
	}
	nu, err := solveNu(st.nuBuf, st.edF)
	if err != nil {
		return 0, err
	}
	st.weigh(nu)
	return nu, nil
}

// MinEig returns min_k λ_min((H)_k) of the accumulated selected-point
// Hessian blocks — the η-tuning criterion.
func (st *RoundState) MinEig() float64 {
	minEig := math.Inf(1)
	for _, blk := range st.hacc {
		vals, err := mat.SymEigvalsInto(st.ws, st.nuBuf[:st.d:st.d], blk)
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

var roundScratchPool = parallel.FreeList[roundScratch]{New: func() *roundScratch {
	return &roundScratch{ws: mat.NewWorkspace()}
}}

func getRoundScratch(n, d, c int) *roundScratch {
	sc := roundScratchPool.Get()
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
// argmax and broadcasts the winner's (x, h), and every rank then updates
// its state itself, all c eigendecompositions included (O(cd³) per step,
// replicated rather than sharded, so no eigenvalues cross the wire).
// o.Exclude and the returned selections are global pool indices,
// identical on every rank.
func RoundGroup(ctx context.Context, g Group, p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	if o.Eta <= 0 {
		o.Eta = p.DefaultEta()
	}
	res := &RoundResult{Timings: timing.New()}
	ph := res.Timings

	sc := getRoundScratch(p.N(), p.D(), p.C())
	defer roundScratchPool.Put(sc)
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
// place.
//
//firal:hotpath
func (g Group) roundLoop(ctx context.Context, pool hessian.Pool, st *RoundState, b int, sc *roundScratch, res *RoundResult) error {
	cm := g.Comm
	scores, selected, xh := sc.scores, sc.selected, sc.xh
	n, d, c := pool.N(), pool.D(), pool.C()
	probs := pool.Probs()
	ph := res.Timings
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

		// Lines 8–11: accumulate (H)_k, ν_{t+1} and the eigenbasis of
		// B_{t+1}.
		nu, err := st.Update(xh[:d], xh[d:d+c], ph)
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
