package main

import (
	"context"

	"repro/internal/firal"
	"repro/internal/hessian"
)

// resident_select_c10: one Approx-FIRAL selection over a resident pool
// (nothing to decode) with c = 10 Fisher blocks, so ROUND's block
// eigensolves, the block preconditioner and GEMM dominate.
// dist_tcp_select_p2 solves the same problem over two TCP ranks.
const (
	residentN       = 10_000
	residentD       = 64
	residentC       = 10
	residentLabeled = 50
	residentBudget  = 8
	residentIters   = 1
)

func residentRelax(seed int64) firal.RelaxOptions {
	return firal.RelaxOptions{FixedIterations: residentIters, Probes: 10, CGTol: 0.1, CGMaxIter: 8, Seed: seed}
}

func residentShape(cgIters, ranks, elemBytes int) shape {
	return shape{n: residentN, d: residentD, c: residentC, probes: 10, iters: residentIters,
		cgIters: cgIters, budget: residentBudget, ranks: ranks, elemBytes: elemBytes}
}

func runResident(h *harness) error {
	in := genClassProblem(h.seed, residentN, residentLabeled, residentD, residentC)
	sc := &selectCase{
		budget:  residentBudget,
		relax:   residentRelax(h.seed),
		shape:   residentShape(0, 1, 8),
		repeats: setupRepeats,
	}
	sc.open = func(context.Context, *tracer) (*selectStack, error) {
		pool := hessian.NewSet(in.x, in.h)
		return &selectStack{prob: firal.NewProblem(in.labeled, pool), close: func() {}}, nil
	}
	return runSelect(h, sc)
}
