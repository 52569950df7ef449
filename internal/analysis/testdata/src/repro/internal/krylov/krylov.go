// Package krylov is a fixture stub for repro/internal/krylov.
package krylov

import "context"

type Dense struct{ Rows, Cols int }

type Result struct{ Iterations int }

type Options struct{ Tol float64 }

type BlockOp func(dst, v *Dense)

func SolveBlockInto(ctx context.Context, a, precond BlockOp, b, x *Dense, results []Result, opt Options) []Result {
	return results
}
