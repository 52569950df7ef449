// Package ctxpoll exercises the ctxpoll analyzer: loops driving
// streaming-decode or CG kernels from context-taking functions.
package ctxpoll

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/krylov"
)

func noPoll(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) error {
	for i := 0; i < 10; i++ { // want "loop drives dataset.ReadRows but never polls ctx"
		if err := src.ReadRows(i, i+1, dst); err != nil {
			return err
		}
	}
	return nil
}

func polls(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) error {
	for i := 0; i < 10; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := src.ReadRows(i, i+1, dst); err != nil {
			return err
		}
	}
	return nil
}

// passesDown hands ctx to a callee inside the loop: the callee owns the
// per-iteration poll, so the loop is compliant.
func passesDown(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) error {
	for i := 0; i < 10; i++ {
		if err := step(ctx, src, dst); err != nil {
			return err
		}
	}
	return nil
}

func step(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return src.ReadRows(0, 1, dst)
}

// outerPollInnerKernel: the enclosing loop polls, so the inner kernel
// loop inherits the per-round cadence.
func outerPollInnerKernel(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) error {
	for round := 0; round < 3; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if err := src.ReadRows(i, i+1, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// solveLoop launders the incoming ctx away with Background(): the loop
// body never references the parameter, so the contract still fires.
func solveLoop(ctx context.Context, op krylov.BlockOp, b, x *krylov.Dense) {
	for i := 0; i < 5; i++ { // want "loop drives krylov.SolveBlockInto but never polls ctx"
		krylov.SolveBlockInto(context.Background(), op, nil, b, x, nil, krylov.Options{})
	}
}

// solvePassesCtx forwards ctx into the solver each iteration: the
// solver owns the poll.
func solvePassesCtx(ctx context.Context, op krylov.BlockOp, b, x *krylov.Dense) {
	for i := 0; i < 5; i++ {
		krylov.SolveBlockInto(ctx, op, nil, b, x, nil, krylov.Options{})
	}
}

// gramLoop rebuilds the Σz blocks every iteration without a poll: each
// call sweeps the whole pool.
func gramLoop(ctx context.Context, p hessian.Pool, blocks []*hessian.Dense, z []float64) {
	for i := 0; i < 5; i++ { // want "loop drives hessian.BlockDiagSumInto but never polls ctx"
		blocks = hessian.BlockDiagSumInto(nil, p, blocks, z)
	}
}

// rangeNoPoll: range loops are checked the same as for loops.
func rangeNoPoll(ctx context.Context, src dataset.PoolSource, dsts []*dataset.Matrix) {
	for _, dst := range dsts { // want "loop drives dataset.ReadRows but never polls ctx"
		_ = src.ReadRows(0, 1, dst)
	}
}

// noCtx has no context parameter: nothing to poll, out of scope.
func noCtx(src dataset.PoolSource, dst *dataset.Matrix) {
	for i := 0; i < 10; i++ {
		_ = src.ReadRows(i, i+1, dst)
	}
}

// nonKernelLoop never touches a kernel: free to ignore ctx.
func nonKernelLoop(ctx context.Context, xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func allowedLoop(ctx context.Context, src dataset.PoolSource, dst *dataset.Matrix) {
	//firal:allow(ctxpoll) — bounded 3-block warmup, sub-millisecond
	for i := 0; i < 3; i++ {
		_ = src.ReadRows(i, i+1, dst)
	}
}
