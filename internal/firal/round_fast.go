package firal

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/timing"
)

// nonFiniteLoc is the location a rank offers to the argmax allreduce,
// with the value +Inf, when it holds a non-finite unselected score: +Inf
// outranks every finite score, so every rank receives it and fails the
// step together without another collective.
const nonFiniteLoc = -2

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
	wl    []mat.Packed // W_kᵀ packed as the left operand of W_kᵀ·xᵀ, repacked whenever W_k changes
	lamM  []float64    // eigenvalues of every M_k, c×d
	a, a2 []float64    // a_kj = 1/(ν + max(λ_kj, 0)) and a_kj², c×d

	// Persistent scratch, reused across the b inner iterations so the hot
	// Scores/Update loop stays allocation-free after warm-up. A RoundState
	// is owned by one goroutine.
	ws     *mat.Workspace
	lamBuf []float64 // eigenvalues of every (H̃)_k, c×d (line 9)
	nuBuf  []float64 // scaled eigenvalues for the ν solve, c×d

	// The per-class eigensolves: one scratch set per worker, the job
	// every class runs and each class's error, read by classItems (bound
	// once as classFn so the dispatch does not allocate a closure).
	cs      []classScratch
	job     classJob
	per     int
	errs    []error
	classFn func(lo, hi int)

	// The Scores sweep and its lanes' scratch.
	scores scoreSweep
}

// scoreSweep is one Scores pass as a parallel.BlockSweep. Every point is
// scored within its own block, so the blocks write disjoint parts of dst
// and fold nothing.
type scoreSweep struct {
	st    *RoundState
	pool  hessian.Pool
	h     *mat.Dense
	dst   []float64
	n, bs int
	nl    int // lanes (parallel.BlockLanes)
	lanes []*scoreLane
}

// scoreLane is one lane of the Scores sweep: the rows of its block, the
// workspace they come from (the state's for lane 0, its own for the
// others), its packed row tile and its norm sums.
type scoreLane struct {
	*scoreSweep
	ws, own *mat.Workspace
	rows    hessian.LaneRows
	xb      *mat.Dense // the rows being scored: the block, or a decode window of it
	base    int        // global index of xb's first row
	xp      mat.Packed
	q       [2 * scoreTile]float64
}

// classScratch is one worker's scratch for the per-class eigensolves.
type classScratch struct {
	ws  *mat.Workspace
	tmp *mat.Dense // d×d product scratch
	pk  *mat.Dense // d×d scratch: (H̃)_k, then M_k
}

// classJob names the per-class work of one forClasses pass.
type classJob uint8

const (
	jobSetup  classJob = iota // lines 4–5: (Σ⋄)_k^{-1/2} and the eigenbasis of B_1
	jobUpdate                 // line 9 and the eigenbasis of B_{t+1}
	jobLast                   // line 9 only: the last step's eigenbasis is never read
	jobMinEig                 // the eigenvalues of (H)_k
)

// scoreTile is the row tile of the Scores sweep: a 64-row tile of a d=64
// block and one packed W_k are 32 KiB each, so both stay in L1 while
// every eight-point panel of the tile runs against W_k.
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
			wl:     make([]mat.Packed, c),
			lamM:   make([]float64, c*d),
			a:      make([]float64, c*d),
			a2:     make([]float64, c*d),
			ws:     mat.NewWorkspace(),
			lamBuf: make([]float64, c*d),
			nuBuf:  make([]float64, c*d),
			errs:   make([]error, c),
		}
		st.scores.st = st
		st.classFn = st.classItems
	}
	st.eta, st.b, st.edF = eta, b, float64(d*c)
	st.sig, st.ho = sig, ho

	// Line 4: the (Σ⋄)_k^{-1/2} transforms; line 5: the eigenbasis of
	// B_1, where H = 0 leaves M_k = (η/b)(Σ⋄)_k^{-1/2}(Ho)_k(Σ⋄)_k^{-1/2}.
	stop := ph.Start("eig")
	err := st.forClasses(jobSetup)
	stop()
	if err != nil {
		return nil, err
	}

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

// forClasses runs job for every class on the worker pool and returns the
// error of the lowest-numbered failing class, as a loop over the classes
// would. The classes are split into one contiguous run per worker, and
// each run uses its own scratch set; every class writes only its own
// state, so the result does not depend on the worker count.
//
//firal:hotpath
func (st *RoundState) forClasses(job classJob) error {
	items := min(parallel.Workers(), st.c)
	for len(st.cs) < items {
		//firal:allow(alloc) — amortized: one scratch set per worker, grown only when the worker count grows
		st.cs = append(st.cs, classScratch{ws: mat.NewWorkspace(), tmp: mat.NewDense(st.d, st.d), pk: mat.NewDense(st.d, st.d)})
	}
	st.job, st.per = job, (st.c+items-1)/items
	parallel.ForChunkMin((st.c+st.per-1)/st.per, 1, st.classFn)
	for _, err := range st.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// classItems runs the current job for the classes of forClasses items
// [lo, hi): item it covers classes [it·per, (it+1)·per) with scratch it.
//
//firal:hotpath
func (st *RoundState) classItems(lo, hi int) {
	for it := lo; it < hi; it++ {
		sc := &st.cs[it]
		for k := it * st.per; k < min((it+1)*st.per, st.c); k++ {
			st.errs[k] = st.classStep(sc, k)
		}
	}
}

// classStep runs the current job for class k.
//
//firal:hotpath
func (st *RoundState) classStep(sc *classScratch, k int) error {
	d := st.d
	switch st.job {
	case jobSetup:
		if err := mat.InvSqrtInto(sc.ws, st.isqrt[k], st.sig[k], 1e-10); err != nil {
			return err
		}
		mat.MulWS(sc.ws, sc.tmp, st.isqrt[k], st.ho[k])
		mat.MulWS(sc.ws, st.hot[k], sc.tmp, st.isqrt[k])
		sc.pk.CopyFrom(st.hot[k])
		sc.pk.Scale(st.eta / float64(st.b))
		return st.basis(sc, k)
	case jobMinEig:
		_, err := mat.SymEigvalsInto(sc.ws, st.lamBuf[k*d:(k+1)*d:(k+1)*d], st.hacc[k])
		return err
	}
	mat.MulWS(sc.ws, sc.tmp, st.isqrt[k], st.hacc[k])
	mat.MulWS(sc.ws, sc.pk, sc.tmp, st.isqrt[k])
	sc.pk.Symmetrize()
	if _, err := mat.SymEigvalsInto(sc.ws, st.lamBuf[k*d:(k+1)*d:(k+1)*d], sc.pk); err != nil {
		return err
	}
	if st.job == jobLast {
		return nil
	}
	// M_k = η(H̃)_k + (η/b)(Σ⋄)_k^{-1/2}(Ho)_k(Σ⋄)_k^{-1/2}.
	sc.pk.Scale(st.eta)
	sc.pk.AddScaled(st.eta/float64(st.b), st.hot[k])
	return st.basis(sc, k)
}

// basis eigendecomposes M_k, given in sc.pk (which it overwrites), into
// the class's eigenvalues lamM and its mapped-back basis W_kᵀ, and packs
// W_kᵀ for Scores.
func (st *RoundState) basis(sc *classScratch, k int) error {
	d := st.d
	if _, _, err := mat.SymEigInto(sc.ws, st.lamM[k*d:(k+1)*d:(k+1)*d], sc.pk, sc.pk); err != nil {
		return err
	}
	mat.MulTransAWS(sc.ws, st.wt[k], sc.pk, st.isqrt[k])
	st.wl[k].PackLeft(st.wt[k])
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
// pass. The blocks run on parallel.ForBlocks lanes (parallel.BlockLanes),
// each lane scoring whole blocks alone, 64-row tile by tile; on more than
// one lane over a streamed pool a lane decodes its block itself, window
// by window (hessian.LaneRows), and scores each window from L2. Per tile and
// class the fused kernel mat.WeightedSqNorms forms y = x·W_k tile by
// register tile and folds it into both quadratic forms as weighted row
// norms (see RoundState), so no product is stored and the cost is one
// GEMM, O(n c d²), per round (Table II). Each point is scored by one
// lane in class order, so the scores do not depend on the worker count.
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
	sw := &st.scores
	sw.pool, sw.h, sw.dst = pool, pool.Probs(), dst
	sw.n, sw.bs = n, min(pool.BlockRows(), n)
	nb := (n + sw.bs - 1) / sw.bs
	sw.nl = parallel.BlockLanes(nb)
	for len(sw.lanes) < sw.nl {
		//firal:allow(alloc) — amortized: one lane per worker, grown only when the worker count grows
		l := &scoreLane{scoreSweep: sw, own: mat.NewWorkspace()}
		//firal:allow(alloc) — amortized, as above
		sw.lanes = append(sw.lanes, l)
	}
	for i, l := range sw.lanes[:sw.nl] {
		l.ws = l.own
		if i == 0 {
			l.ws = st.ws
		}
		l.rows.Start(pool, l.ws, sw.nl, false)
	}
	parallel.ForBlocks(nb, sw.nl, sw)
	for _, l := range sw.lanes[:sw.nl] {
		l.rows.Stop()
	}
	sw.pool, sw.h, sw.dst = nil, nil, nil
	for _, l := range sw.lanes {
		l.ws = nil
	}
}

// Compute takes block k for lane (hessian.LaneRows.Fetch), scores it
// tile by tile, rows by rows as LaneRows serves them, and gives it back.
//
//firal:hotpath
func (sw *scoreSweep) Compute(lane, k int) {
	l := sw.lanes[lane]
	lo := k * sw.bs
	l.rows.Fetch(lo, min(lo+sw.bs, sw.n))
	for x, base := l.rows.Next(); x != nil; x, base = l.rows.Next() {
		l.xb, l.base = x, base
		for r0 := 0; r0 < x.Rows; r0 += scoreTile {
			l.scoreTile(r0, min(r0+scoreTile, x.Rows))
		}
	}
	l.xb = nil
}

// scoreTile writes the scores of lane rows [r0, r1). It packs the tile
// once into the lane's xp, as the right operand of every W_kᵀ·xᵀ, and
// gets each class's two quadratic forms of every point from the fused
// kernel, in the order of y = x·W_k's elements and of the row norms over
// them.
//
//firal:hotpath
func (l *scoreLane) scoreTile(r0, r1 int) {
	st := l.st
	d, xs, m := st.d, l.xb.Stride, r1-r0
	xt := mat.Dense{Rows: m, Cols: d, Stride: xs, Data: l.xb.Data[r0*xs:]}
	qb, qp := l.q[:m], l.q[scoreTile:scoreTile+m]
	out := l.dst[l.base+r0 : l.base+r1]
	clear(out)
	l.xp.PackRight(&xt)
	for k := 0; k < st.c; k++ {
		mat.WeightedSqNorms(qb, qp, &st.wl[k], &l.xp, st.a[k*d:(k+1)*d], st.a2[k*d:(k+1)*d])
		for i := range out {
			hv := l.h.At(l.base+r0+i, k)
			gamma := hv * (1 - hv)
			if gamma == 0 {
				continue
			}
			out[i] += gamma * qp[i] / (1 + float64(st.eta*gamma*qb[i]))
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
// B_{t+1} (line 11). The per-class work runs on the worker pool. It
// returns ν_{t+1}.
func (st *RoundState) Update(x, h []float64, ph *timing.Phases) (float64, error) {
	return st.update(x, h, ph, false)
}

// update is Update; on the last greedy step (last) it computes ν but
// skips the eigenbases and weights of B_{t+1}, which nothing reads.
func (st *RoundState) update(x, h []float64, ph *timing.Phases, last bool) (float64, error) {
	stop := ph.Start("other")
	st.AddPoint(x, h)
	stop()

	stop = ph.Start("eig")
	job := jobUpdate
	if last {
		job = jobLast
	}
	err := st.forClasses(job)
	stop()
	if err != nil {
		return 0, err
	}

	stop = ph.Start("other")
	defer stop()
	for i, l := range st.lamBuf {
		if l < 0 && !math.IsInf(l, -1) {
			l = 0 // roundoff guard: H̃ is PSD; solveNu rejects −Inf
		}
		st.nuBuf[i] = st.eta * l
	}
	nu, err := solveNu(st.nuBuf, st.edF)
	if err != nil {
		return 0, err
	}
	if !last {
		st.weigh(nu)
	}
	return nu, nil
}

// MinEig returns min_k λ_min((H)_k) of the accumulated selected-point
// Hessian blocks — the η-tuning criterion — or −Inf when a class's
// eigensolve fails. The per-class solves run on the worker pool.
func (st *RoundState) MinEig() float64 {
	if st.d == 0 || st.forClasses(jobMinEig) != nil {
		return math.Inf(-1)
	}
	minEig := math.Inf(1)
	for k := 0; k < st.c; k++ {
		if v := st.lamBuf[k*st.d]; v < minEig {
			minEig = v
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
	sig, err := g.sigmaBlocks(sc.ws, p, sc.sig, z, p.labeledBlocks(), ph, "other")
	sc.sig = sig
	if err != nil {
		return nil, err
	}
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
		if err := cm.Cancelled(ctx, pool.Err()); err != nil {
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
			v := scores[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				best, bestV = nonFiniteLoc, math.Inf(1)
				break
			}
			if v > bestV {
				best, bestV = i, v
			}
		}
		stop()
		bestV, owner, best := cm.AllreduceMaxLoc(bestV, best)
		if err := cm.Err(); err != nil {
			return err // the winner of a failed argmax is meaningless
		}
		if best == nonFiniteLoc {
			return fmt.Errorf("%w: greedy step %d, rank %d", ErrNonFinite, t, owner)
		}
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
		nu, err := st.update(xh[:d], xh[d:d+c], ph, t == min(b, g.Total))
		if err != nil {
			return err
		}
		res.Nu = append(res.Nu, nu) //firal:allow(alloc) result history, one entry per selection
	}
	// No collective follows the last step's reads and winner broadcast
	// inside a selection, so they get one more agreed poll.
	if err := cm.Cancelled(ctx, pool.Err()); err != nil {
		return err
	}
	stop := ph.Start("eig")
	res.MinEigH = st.MinEig()
	stop()
	return nil
}
