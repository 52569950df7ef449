package krylov

import (
	"context"

	"repro/internal/mat"
)

// BlockOp applies a linear operator to a block of s vectors at once:
// dst = A·V for V ∈ R^{n×s}. The block is held TRANSPOSED — dst and v are
// s×n row-major matrices whose row j is column j of the mathematical
// block — so every vector is one contiguous slice and implementations can
// hand rows straight to the per-vector kernels. dst and v never alias,
// and dst is always a compact (stride == cols) workspace matrix.
//
// The whole point of the block form is sweep amortization: an
// implementation backed by a streamed pool (hessian.MatVecBlockWS) visits
// every pool row block exactly once per application and updates all s
// vectors from that one visit, so a CG solve over an s-column probe block
// decodes the pool once per iteration instead of once per column per
// iteration.
type BlockOp func(dst, v *mat.Dense)

// SolveBlockInto solves A X = B with batched conjugate gradients: all s
// columns advance in lockstep, one BlockOp application per iteration,
// with per-column convergence masking. b and x are transposed blocks (s×n
// row-major, row j = column j). x is output only: the solve zeroes it on
// entry and starts from X = 0, so the initial residual is R = B and costs
// no operator application — a solve applies A exactly max_j Iterations_j
// times, and not at all when every column of B is zero. Per-column
// Results are written into the caller's slice (grown when capacity is
// short, reset otherwise), scratch is drawn from opt.Workspace so warm
// sweeps are allocation-free, and the context is polled once per
// iteration.
//
// Starting from zero gives the bits an explicit R = B − A·0 would: for a
// finite operator A·0 is ±0 element-wise, and B − (±0) = B, except that a
// −0 entry of B meeting a −0 would have become +0. For an operator that
// meets an Inf or NaN (a pool row holding one), the column freezes at
// X = 0 on its first curvature check either way; only its RelResidual
// reads 1 where the explicit residual read NaN.
//
// Lockstep semantics: every column runs the scalar PCG recurrence on its
// own b_j with its own α, β, and residual bookkeeping — the block
// solve performs exactly the arithmetic of s independent PCG solves, so
// solutions, iteration counts, and convergence flags match the
// per-column SolveColumns oracle of the tests bit for bit. A column that
// converges (or breaks down on a loss of positive definiteness) is
// masked: its iterate freezes while the remaining columns keep
// iterating, and the operator keeps being applied to the full block (the
// masked columns' stale directions are computed but ignored — with a
// streamed pool the decode dominates, and it is already shared). On cancellation the still-active columns
// report context.Cause(ctx) — ctx.Err() unless the canceller named a
// cause — with x holding their best iterates; columns that already
// converged keep their results.
//
//firal:hotpath
func SolveBlockInto(ctx context.Context, a BlockOp, precond BlockOp, b, x *mat.Dense, results []Result, opt Options) []Result {
	if b.Rows != x.Rows || b.Cols != x.Cols {
		panic("krylov: SolveBlockInto shape mismatch")
	}
	s, n := b.Rows, b.Cols
	if cap(results) < s {
		results = make([]Result, s) //firal:allow(alloc) amortized: grows once per larger probe block
	} else {
		results = results[:s]
		for j := range results {
			results[j] = Result{}
		}
	}
	if s == 0 {
		return results
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	ws := opt.Workspace
	r := ws.Matrix(s, n)
	z := ws.Matrix(s, n)
	p := ws.Matrix(s, n)
	ap := ws.Matrix(s, n)
	bnorm := ws.Vec(s)
	rz := ws.Vec(s)
	rel := ws.Vec(s)
	act := ws.Vec(s) // 1 = still iterating, 0 = masked off
	defer func() {
		ws.PutMatrix(r)
		ws.PutMatrix(z)
		ws.PutMatrix(p)
		ws.PutMatrix(ap)
		ws.PutVec(bnorm)
		ws.PutVec(rz)
		ws.PutVec(rel)
		ws.PutVec(act)
	}()

	//firal:allow(alloc) — built once per solve, non-escaping
	applyPrec := func() {
		if precond != nil {
			precond(z, r)
		} else {
			z.CopyFrom(r)
		}
	}

	// X = 0, so the initial residuals are R = B.
	x.Zero()
	r.CopyFrom(b)
	nActive := 0
	for j := 0; j < s; j++ {
		act[j] = 0
		bnorm[j] = mat.Nrm2(b.Row(j))
		if bnorm[j] == 0 {
			results[j].Converged = true
			continue
		}
		rel[j] = mat.Nrm2(r.Row(j)) / bnorm[j]
		if opt.RecordResiduals {
			results[j].Residuals = append(results[j].Residuals, rel[j]) //firal:allow(alloc) diagnostics mode
		}
		if rel[j] <= opt.Tol {
			results[j].Converged = true
			results[j].RelResidual = rel[j]
			continue
		}
		act[j] = 1
		nActive++
	}
	if nActive == 0 {
		return results
	}

	// First preconditioned search directions.
	applyPrec()
	for j := 0; j < s; j++ {
		if act[j] == 0 {
			continue
		}
		copy(p.Row(j), z.Row(j))
		rz[j] = mat.Dot(r.Row(j), z.Row(j))
	}

	for it := 0; it < maxIter && nActive > 0; it++ {
		if ctx.Err() != nil {
			err := context.Cause(ctx)
			for j := 0; j < s; j++ {
				if act[j] == 0 {
					continue
				}
				results[j].RelResidual = rel[j]
				results[j].Err = err
			}
			return results
		}
		// One operator application advances every active column (masked
		// columns ride along on their stale directions; the results are
		// simply not read).
		a(ap, p)
		for j := 0; j < s; j++ {
			if act[j] == 0 {
				continue
			}
			pj, apj := p.Row(j), ap.Row(j)
			pap := mat.Dot(pj, apj)
			if pap <= 0 || pap != pap {
				// Column j lost positive definiteness numerically; stop
				// it at its last iterate (not its best: a residual that
				// grew on the way is not rolled back).
				results[j].RelResidual = rel[j]
				act[j] = 0
				nActive--
				continue
			}
			alpha := rz[j] / pap
			mat.Axpy(alpha, pj, x.Row(j))
			mat.Axpy(-alpha, apj, r.Row(j))
			rel[j] = mat.Nrm2(r.Row(j)) / bnorm[j]
			results[j].Iterations = it + 1
			if opt.RecordResiduals {
				results[j].Residuals = append(results[j].Residuals, rel[j]) //firal:allow(alloc) diagnostics mode
			}
			if rel[j] <= opt.Tol {
				results[j].Converged = true
				results[j].RelResidual = rel[j]
				act[j] = 0
				nActive--
			}
		}
		if nActive == 0 {
			break
		}
		applyPrec()
		for j := 0; j < s; j++ {
			if act[j] == 0 {
				continue
			}
			rzNew := mat.Dot(r.Row(j), z.Row(j))
			beta := rzNew / rz[j]
			rz[j] = rzNew
			pj, zj := p.Row(j), z.Row(j)
			for i := range pj {
				pj[i] = zj[i] + float64(beta*pj[i])
			}
		}
	}
	for j := 0; j < s; j++ {
		if act[j] != 0 {
			results[j].RelResidual = rel[j] // iteration budget exhausted
		}
	}
	return results
}
