package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// CGConvergence holds the Fig. 1 data: relative residual per CG iteration
// with and without the block-diagonal preconditioner, for the linear
// system of the first mirror-descent iteration, plus the condition
// numbers the paper quotes (198 vs 72 for CIFAR-10).
type CGConvergence struct {
	Dataset           string
	Plain             []float64 // residual history without preconditioner
	Preconditioned    []float64 // residual history with B(Σz)⁻¹
	CondSigma         float64   // κ(Σz); 0 when ẽd too large to compute
	CondPrecondSigma  float64   // κ(B(Σz)⁻¹Σz)
	PlainIters        int
	PreconditionedIts int
}

// problemFromDataset trains the round-1 classifier on the initial labeled
// set and assembles the FIRAL problem exactly as the accuracy pipeline
// does.
func problemFromDataset(ds *dataset.Dataset) (*firal.Problem, error) {
	model, err := logreg.Train(ds.LabeledX, ds.LabeledY, ds.Classes, nil, logreg.Options{})
	if err != nil {
		return nil, err
	}
	ho := hessian.ReduceProbs(softmax.Probabilities(nil, ds.LabeledX, model.Theta))
	hu := hessian.ReduceProbs(softmax.Probabilities(nil, ds.PoolX, model.Theta))
	labeled := hessian.NewSet(ds.LabeledX, ho)
	pool := hessian.NewSet(ds.PoolX, hu)
	return firal.NewProblem(labeled, pool), nil
}

// RunCGConvergence reproduces Fig. 1 on one dataset config: it builds Σz
// at the uniform initial z, draws one Rademacher right-hand side, and
// records CG convergence with and without the preconditioner.
// maxEdForCond bounds the dense condition-number computation (0 disables).
func RunCGConvergence(ctx context.Context, cfg dataset.Config, scale float64, seed int64, tol float64, maxIter, maxEdForCond int) (*CGConvergence, error) {
	if scale <= 0 {
		scale = 1
	}
	if tol <= 0 {
		tol = 1e-3
	}
	if maxIter <= 0 {
		maxIter = 800
	}
	ds := dataset.Generate(cfg.Scale(scale), seed)
	p, err := problemFromDataset(ds)
	if err != nil {
		return nil, err
	}
	n, ed := p.N(), p.Ed()
	z := make([]float64, n)
	mat.Fill(z, 1/float64(n))

	ws := mat.NewWorkspace()
	sigMV := krylov.BlockOp(p.SigmaMatVec(ws, z))
	blocks, err := p.SigmaBlocks(z)
	if err != nil {
		return nil, err
	}
	// One-iteration experiment, but use the reusable state so this path
	// exercises the same preconditioner code the RELAX loop runs.
	bp := firal.NewBlockPreconditionerWS()
	if err := bp.Update(blocks); err != nil {
		return nil, err
	}

	rng := rnd.New(seed + 99)
	b := mat.NewDense(1, ed)
	rng.Rademacher(b.Data)

	res := &CGConvergence{Dataset: cfg.Name}
	opt := krylov.Options{Tol: tol, MaxIter: maxIter, RecordResiduals: true, Workspace: ws}

	// One-row block solves, without and with the preconditioner.
	plain := krylov.SolveBlockInto(ctx, sigMV, nil, b, mat.NewDense(1, ed), nil, opt)[0]
	if plain.Err != nil {
		return nil, plain.Err
	}
	res.Plain = plain.Residuals
	res.PlainIters = plain.Iterations

	prec := krylov.SolveBlockInto(ctx, sigMV, bp.ApplyBlock, b, mat.NewDense(1, ed), nil, opt)[0]
	if prec.Err != nil {
		return nil, prec.Err
	}
	res.Preconditioned = prec.Residuals
	res.PreconditionedIts = prec.Iterations

	// Condition numbers via the dense operator, when affordable.
	if maxEdForCond > 0 && ed <= maxEdForCond {
		sigma := p.DenseSigma(z)
		if sf, err := mat.NewSPDFuncs(sigma, 1e-12); err == nil {
			res.CondSigma = sf.Cond()
		}
		// Preconditioned operator: B(Σ)⁻¹Σ has the same spectrum as the
		// symmetric form B^{-1/2} Σ B^{-1/2}.
		bd := mat.BlockDiag(blocks)
		if bsf, err := mat.NewSPDFuncs(bd, 1e-12); err == nil {
			bis := bsf.InvSqrt()
			m := mat.Mul(nil, mat.Mul(nil, bis, sigma), bis)
			m.Symmetrize()
			if msf, err := mat.NewSPDFuncs(m, 1e-12); err == nil {
				res.CondPrecondSigma = msf.Cond()
			}
		}
	}
	return res, nil
}

// PrintCGConvergence renders the two residual series side by side.
func PrintCGConvergence(w io.Writer, r *CGConvergence) {
	fmt.Fprintf(w, "# Fig. 1 — CG convergence on %s\n", r.Dataset)
	if r.CondSigma > 0 {
		fmt.Fprintf(w, "cond(Σz) = %.4g, cond(B(Σz)⁻¹Σz) = %.4g\n", r.CondSigma, r.CondPrecondSigma)
	}
	fmt.Fprintf(w, "iterations: w/o preconditioner %d, w/ preconditioner %d\n",
		r.PlainIters, r.PreconditionedIts)
	steps := len(r.Plain)
	if len(r.Preconditioned) > steps {
		steps = len(r.Preconditioned)
	}
	var rows [][]string
	for i := 0; i < steps; i++ {
		row := []string{fmt.Sprintf("%d", i), "", ""}
		if i < len(r.Plain) {
			row[1] = fmt.Sprintf("%.3e", r.Plain[i])
		}
		if i < len(r.Preconditioned) {
			row[2] = fmt.Sprintf("%.3e", r.Preconditioned[i])
		}
		rows = append(rows, row)
	}
	PrintTable(w, []string{"cg step", "w/o precond", "w/ precond"}, rows)
}
