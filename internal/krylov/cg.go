// Package krylov implements the (preconditioned) conjugate-gradient solver
// used by the fast RELAX step (Algorithm 2, lines 6 and 8). Operators are
// matrix-free: the caller supplies closures for A·v and M⁻¹·r, which in the
// reproduction come from the Lemma-2 fast Hessian matvec and the
// block-diagonal preconditioner of Eq. 14.
//
// Multi-RHS solves use SolveBlockInto, the batched block-CG the RELAX
// probe block runs: all s columns advance in LOCKSTEP — one BlockOp
// application (for a streamed pool, one decode sweep) per iteration
// serves every column — with per-column convergence masking, so a column
// that converges or breaks down freezes while the rest keep iterating.
// Each column still runs the scalar PCG recurrence on its own data, so
// block results equal s independent PCG solves (the per-column oracle of
// the tests) bit for bit; only the operator traffic is shared. Blocks are passed transposed (s×n, row
// j = column j) so every vector is contiguous.
//
// Solves are cancellable: every entry point takes a context.Context and
// checks it once per iteration, so a deadline or cancellation aborts a
// long solve between matvecs (SolveBlockInto reports ctx.Err() on the
// columns still active and leaves their best iterates in x).
package krylov

import (
	"context"
	"math"

	"repro/internal/mat"
)

// Op applies a linear operator: dst = A·v. dst and v never alias.
type Op func(dst, v []float64)

// Options configure a CG solve.
type Options struct {
	// Tol is the relative-residual termination tolerance ‖r‖/‖b‖ (the
	// paper's cgtol; its accuracy experiments use 0.1).
	Tol float64
	// MaxIter caps the iteration count. Zero means 10·n.
	MaxIter int
	// RecordResiduals stores the relative residual after every iteration
	// (including iteration 0), enabling the Fig. 1 convergence curves.
	RecordResiduals bool
	// Workspace supplies the solver's four n-vectors from a reusable
	// arena instead of fresh allocations,
	// so repeated solves run allocation-free after warm-up (aside from
	// RecordResiduals appends). The workspace must not be shared across
	// goroutines; nil restores allocate-per-solve.
	Workspace *mat.Workspace
}

// Result reports a CG solve.
type Result struct {
	Iterations int
	Converged  bool
	// RelResidual is the final relative residual ‖b−Ax‖/‖b‖ (recurrence
	// estimate).
	RelResidual float64
	// Residuals holds per-iteration relative residuals when requested.
	Residuals []float64
	// Err is non-nil when the solve was aborted by the context; x then
	// holds the best iterate reached before cancellation.
	Err error
}

// CG solves A x = b with plain conjugate gradients. x is both the initial
// guess and the output.
func CG(ctx context.Context, a Op, b, x []float64, opt Options) Result {
	return PCG(ctx, a, nil, b, x, opt)
}

// PCG solves A x = b with preconditioned conjugate gradients. precond
// applies M⁻¹ (pass nil for unpreconditioned CG). x is both the initial
// guess and the output. The context is polled once per iteration; on
// cancellation the result carries ctx.Err() and the current iterate.
//
//firal:hotpath
func PCG(ctx context.Context, a Op, precond Op, b, x []float64, opt Options) Result {
	n := len(b)
	if len(x) != n {
		panic("krylov: x/b length mismatch")
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	ws := opt.Workspace
	r := ws.Vec(n)
	av := ws.Vec(n)
	defer func() {
		ws.PutVec(r)
		ws.PutVec(av)
	}()
	a(av, x)
	for i := range r {
		r[i] = b[i] - av[i]
	}
	bnorm := mat.Nrm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true, RelResidual: 0}
	}

	z := ws.Vec(n)
	//firal:allow(alloc) — built once per solve, non-escaping
	applyPrec := func() {
		if precond != nil {
			precond(z, r)
		} else {
			copy(z, r)
		}
	}
	applyPrec()
	p := ws.Vec(n)
	copy(p, z)
	defer func() {
		ws.PutVec(z)
		ws.PutVec(p)
	}()
	rz := mat.Dot(r, z)

	res := Result{}
	rel := mat.Nrm2(r) / bnorm
	if opt.RecordResiduals {
		res.Residuals = append(res.Residuals, rel) //firal:allow(alloc) diagnostics mode
	}
	if rel <= opt.Tol {
		res.Converged = true
		res.RelResidual = rel
		return res
	}

	for it := 0; it < maxIter; it++ {
		if err := ctx.Err(); err != nil {
			res.RelResidual = rel
			res.Err = err
			return res
		}
		a(av, p)
		pap := mat.Dot(p, av)
		if pap <= 0 || math.IsNaN(pap) {
			// Operator lost positive definiteness numerically; stop with
			// the best iterate so far.
			res.Iterations = it
			res.RelResidual = rel
			return res
		}
		alpha := rz / pap
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, av, r)
		rel = mat.Nrm2(r) / bnorm
		res.Iterations = it + 1
		if opt.RecordResiduals {
			res.Residuals = append(res.Residuals, rel) //firal:allow(alloc) diagnostics mode
		}
		if rel <= opt.Tol {
			res.Converged = true
			break
		}
		applyPrec()
		rzNew := mat.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.RelResidual = rel
	return res
}

// FirstError returns the first context error recorded in a batch of
// results, if any.
func FirstError(rs []Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// TotalIterations sums the iteration counts of a batch of results.
func TotalIterations(rs []Result) int {
	var t int
	for _, r := range rs {
		t += r.Iterations
	}
	return t
}

// MaxIterations returns the largest iteration count in a batch.
func MaxIterations(rs []Result) int {
	var m int
	for _, r := range rs {
		if r.Iterations > m {
			m = r.Iterations
		}
	}
	return m
}
