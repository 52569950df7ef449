// Package firal implements the paper's primary contribution: the FIRAL
// active-learning algorithm (Fisher Information Ratio Active Learning) in
// both its exact form (Algorithm 1) and the scalable Approx-FIRAL form
// (Algorithms 2 and 3).
//
// Given an initial labeled set Xo and an unlabeled pool Xu under a
// multinomial logistic-regression classifier, FIRAL selects a batch of b
// pool points minimizing the Fisher Information Ratio
//
//	f(z) = (Ho + Hz)⁻¹ · Hp,   z ∈ {0,1}ⁿ, ‖z‖₁ = b        (Eq. 4)
//
// via a continuous RELAX step (entropic mirror descent) followed by a
// regret-minimization ROUND step (Follow-The-Regularized-Leader).
package firal

import (
	"errors"
	"math"

	"repro/internal/hessian"
	"repro/internal/mat"
)

// Problem is one batch-selection instance: the labeled set Xo and the
// unlabeled pool Xu, each with class probabilities h(x) under the current
// classifier.
//
// As in Eq. 1, probabilities use the reduced (c−1)-class parametrization:
// build Sets from hessian.ReduceProbs of the classifier's full softmax
// output. C() below therefore reports the number of Fisher blocks (c−1),
// and ẽd = d·(c−1). The full-softmax parametrization would make every Σz
// singular along the gauge directions 1 ⊗ u and stall the CG solves.
//
// The pool is a hessian.Pool: a resident Set or a block-streaming Stream
// over a dataset.PoolSource. The fast RELAX/ROUND path only touches the
// pool through the blocked Pool kernels, so Approx-FIRAL selects from
// pools that never materialize as one matrix; the exact Algorithm-1
// solvers assemble dense pool Hessians and require residency (see
// ResidentPool).
type Problem struct {
	Labeled *hessian.Set // Xo
	Pool    hessian.Pool // Xu

	// labBlocks caches the z-independent labeled block-diagonal
	// Σ_i∈Xo h_ik(1−h_ik) x_i x_iᵀ, which every SigmaBlocks call reuses.
	// Lazily built; a Problem is owned by one selection goroutine.
	labBlocks []*mat.Dense
}

// NewProblem validates dimensions and builds a Problem.
func NewProblem(labeled *hessian.Set, pool hessian.Pool) *Problem {
	if labeled.D() != pool.D() || labeled.C() != pool.C() {
		panic("firal: labeled/pool dimension mismatch")
	}
	return &Problem{Labeled: labeled, Pool: pool}
}

// ErrResidentPool is returned by the exact Algorithm-1 solvers when the
// pool streams from a PoolSource: they assemble dense pool Hessians and
// per-point outer products, which requires the resident representation.
var ErrResidentPool = errors.New("firal: exact FIRAL requires a resident pool (hessian.Set)")

// ResidentPool returns the pool as a resident Set, or nil when the pool
// is block-streaming.
func (p *Problem) ResidentPool() *hessian.Set {
	s, _ := p.Pool.(*hessian.Set)
	return s
}

// D returns the feature dimension d.
func (p *Problem) D() int { return p.Pool.D() }

// C returns the class count c.
func (p *Problem) C() int { return p.Pool.C() }

// N returns the pool size n.
func (p *Problem) N() int { return p.Pool.N() }

// Ed returns the Fisher dimension ẽd = d·c.
func (p *Problem) Ed() int { return p.Pool.Ed() }

// DefaultEta returns the learning rate of Theorem 1, η = 8·√(ẽd)/ε, at
// ε = 1.
func (p *Problem) DefaultEta() float64 { return 8 * math.Sqrt(float64(p.Ed())) }

// SigmaMatVec returns the matrix-free operator v ↦ (Ho + Hz)·v with pool
// weights z (Σz of Eq. 7), built from the Lemma-2 fast matvec. The
// operator reads z live, so a caller that updates z in place (the
// mirror-descent loop) can build it once.
func (p *Problem) SigmaMatVec(z []float64) func(dst, v []float64) {
	return p.SigmaMatVecWS(nil, z)
}

// SigmaMatVecWS is SigmaMatVec with scratch drawn from ws; with a warm
// workspace each application is allocation-free.
func (p *Problem) SigmaMatVecWS(ws *mat.Workspace, z []float64) func(dst, v []float64) {
	buf := make([]float64, p.Ed())
	return func(dst, v []float64) {
		p.Labeled.MatVecWS(ws, dst, v, nil)
		p.Pool.MatVecWS(ws, buf, v, z)
		for i := range dst {
			dst[i] += buf[i]
		}
	}
}

// sigmaMatVecBlock returns the block operator V ↦ (Ho + Hz)·V over a
// transposed probe block (s×ẽd, row j = probe j; see krylov.BlockOp) on
// one rank of a group whose pool slice is p.Pool. One
// hessian.MatVecBlockWS sweep applies the local pool term to all s probes
// — for a streamed pool, one decode per application instead of one per
// probe — the partials are summed over ranks in one allreduce, and the
// small replicated labeled term is added row by row. Like SigmaMatVecWS,
// the operator reads z live, and on one rank its column results match
// the per-column operator bit for bit.
func (p *Problem) sigmaMatVecBlock(ws *mat.Workspace, cm Collective, z []float64) func(dst, v *mat.Dense) {
	return func(dst, v *mat.Dense) {
		hessian.MatVecBlockWS(ws, p.Pool, dst, v, z)
		cm.Allreduce(compact(dst))
		buf := ws.Vec(v.Cols)
		for j := 0; j < v.Rows; j++ {
			p.Labeled.MatVecWS(ws, buf, v.Row(j), nil)
			mat.Axpy(1, buf, dst.Row(j))
		}
		ws.PutVec(buf)
	}
}

// poolMatVecBlock is the block operator V ↦ Hp·V over the group's pool:
// one local sweep, then one allreduce of the whole block.
func (p *Problem) poolMatVecBlock(ws *mat.Workspace, cm Collective) func(dst, v *mat.Dense) {
	return func(dst, v *mat.Dense) {
		hessian.MatVecBlockWS(ws, p.Pool, dst, v, nil)
		cm.Allreduce(compact(dst))
	}
}

// compact returns m's storage as one slice, so a block reduces in a single
// collective. The block solver hands its operators compact workspace
// matrices.
func compact(m *mat.Dense) []float64 {
	if m.Stride != m.Cols {
		panic("firal: block operator needs compact storage")
	}
	return m.Data[:m.Rows*m.Cols]
}

// labeledBlocks returns the cached labeled block-diagonal contribution.
func (p *Problem) labeledBlocks() []*mat.Dense {
	if p.labBlocks == nil {
		p.labBlocks = p.Labeled.BlockDiagSum(nil)
	}
	return p.labBlocks
}

// SigmaBlocks returns the c diagonal d×d blocks of Σz = Ho + Hz (Eq. 14).
func (p *Problem) SigmaBlocks(z []float64) []*mat.Dense {
	return p.sigmaBlocksInto(nil, nil, z)
}

// sigmaBlocksInto is SigmaBlocks writing into dst with scratch from ws:
// dst is nil (allocate) or the result of an earlier call, which callers
// that rebuild the blocks every iteration pass back to reuse its buffers.
// The returned blocks are only valid until the next call with the same
// dst. It is the engine's Σz assembly on one rank.
func (p *Problem) sigmaBlocksInto(ws *mat.Workspace, dst []*mat.Dense, z []float64) []*mat.Dense {
	return single(p).sigmaBlocks(ws, p, dst, z, p.labeledBlocks(), nil, "")
}

// DenseSigma assembles Σz densely (Exact-FIRAL only; O((dc)²) storage).
// It panics on a streaming pool — exact callers check ResidentPool first.
func (p *Problem) DenseSigma(z []float64) *mat.Dense {
	s := p.Labeled.DenseSum(nil)
	s.AddScaled(1, p.ResidentPool().DenseSum(z))
	return s
}

// choleskyRidge is the initial ridge floor of the CG block
// preconditioner's Cholesky factorizations (and of the Cholesky ROUND
// oracle in the tests, which it shared with the preconditioner before
// ROUND moved to the per-class eigenbasis).
const choleskyRidge = 1e-12

// BlockPreconditionerWS is the reusable state behind the CG
// preconditioner B(Σz)⁻¹ of § III-A: one Cholesky factor per diagonal
// block, with the factor storage owned by the state. Update refactors
// the current blocks in place, so the RELAX loop — which rebuilds the
// preconditioner every mirror-descent iteration — reuses the same
// O(cd²) storage instead of allocating fresh factors per iteration.
// A BlockPreconditionerWS is owned by one goroutine.
type BlockPreconditionerWS struct {
	d     int
	chols []mat.Cholesky
}

// NewBlockPreconditionerWS returns an empty preconditioner state; the
// factor storage is sized lazily by the first Update.
func NewBlockPreconditionerWS() *BlockPreconditionerWS {
	return &BlockPreconditionerWS{}
}

// Update refactors the given diagonal blocks into the state's factor
// storage. Rank-deficient blocks (a class with no effective weight yet)
// are regularized with an automatic ridge. On error the state must not
// be applied until a successful Update.
func (bp *BlockPreconditionerWS) Update(blocks []*mat.Dense) error {
	if len(bp.chols) != len(blocks) {
		bp.chols = make([]mat.Cholesky, len(blocks))
	}
	bp.d = blocks[0].Rows
	for k, b := range blocks {
		if _, err := bp.chols[k].FactorRidge(b, choleskyRidge); err != nil {
			return err
		}
	}
	return nil
}

// Apply computes dst = B(Σz)⁻¹ v block by block. Hot loops hoist the
// method value (apply := bp.Apply) once; the solve itself is
// allocation-free.
func (bp *BlockPreconditionerWS) Apply(dst, v []float64) {
	d := bp.d
	for k := range bp.chols {
		bp.chols[k].SolveVec(dst[k*d:(k+1)*d], v[k*d:(k+1)*d])
	}
}

// ApplyBlock applies the preconditioner to a transposed vector block
// (s×ẽd, row j = vector j; see krylov.BlockOp): dst_j = B(Σz)⁻¹ v_j for
// every row. The block-diagonal solve is column-separable, so this is
// exactly s Apply calls sharing one hoisted method value.
func (bp *BlockPreconditionerWS) ApplyBlock(dst, v *mat.Dense) {
	for j := 0; j < v.Rows; j++ {
		bp.Apply(dst.Row(j), v.Row(j))
	}
}

// BlockPreconditioner builds the CG preconditioner B(Σz)⁻¹ of § III-A
// from the diagonal blocks: each d×d block is factorized once and applied
// per class. One-shot form of BlockPreconditionerWS; loops that rebuild
// the preconditioner per iteration should hold a WS state instead.
func BlockPreconditioner(blocks []*mat.Dense) (func(dst, v []float64), error) {
	bp := NewBlockPreconditionerWS()
	if err := bp.Update(blocks); err != nil {
		return nil, err
	}
	return bp.Apply, nil
}

// uniformSimplex returns the initial mirror-descent iterate
// z = (1/n, …, 1/n).
func uniformSimplex(n int) []float64 {
	z := make([]float64, n)
	mat.Fill(z, 1/float64(n))
	return z
}
