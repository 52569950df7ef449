// Package krylov implements the (preconditioned) conjugate-gradient solver
// used by the fast RELAX step (Algorithm 2, lines 6 and 8). Operators are
// matrix-free: the caller supplies closures for A·V and M⁻¹·R over a block
// of vectors, which in the reproduction come from the Lemma-2 fast Hessian
// matvec and the block-diagonal preconditioner of Eq. 14.
//
// SolveBlockInto is the one solver. It is a batched block-CG: all s
// columns advance in LOCKSTEP — one BlockOp application (for a streamed
// pool, one decode sweep) per iteration serves every column — with
// per-column convergence masking, so a column that converges or breaks
// down freezes while the rest keep iterating. Each column still runs the
// scalar PCG recurrence on its own data, so block results equal s
// independent PCG solves (the per-column oracle of the tests) bit for
// bit; only the operator traffic is shared. A single right-hand side is
// the s=1 case. Blocks are passed transposed (s×n, row j = column j) so
// every vector is contiguous.
//
// The solution block is output only. Every solve starts from X = 0, so
// its initial residual is B itself and costs no operator application: a
// solve applies A once per lockstep iteration and no more. That gives the
// bits an explicit R = B − A·0 would, except for signed zeros (a −0 of B
// that met a −0 of A·0 would have become +0) and for an operator that
// meets an Inf or NaN, whose column freezes at X = 0 either way but
// reports RelResidual 1 instead of NaN.
//
// Solves are cancellable: SolveBlockInto takes a context.Context and
// checks it once per iteration, so a deadline or cancellation aborts a
// long solve between operator applications (the columns still active
// report context.Cause(ctx) and keep their best iterates in x).
package krylov

import "repro/internal/mat"

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
	// Workspace supplies the solver's four s×n scratch blocks from a
	// reusable arena instead of fresh allocations, so repeated solves run
	// allocation-free after warm-up (aside from RecordResiduals appends). The workspace must not be shared across
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
