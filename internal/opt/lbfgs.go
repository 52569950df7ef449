// Package opt provides the generic optimizers the reproduction needs:
// L-BFGS with backtracking line search (used to train the multinomial
// logistic classifier, replacing scikit-learn's lbfgs solver) and a
// guarded bisection root finder (used for the FTRL normalization constant
// ν_t in the ROUND step, Algorithm 1 line 17 / Algorithm 3 line 10).
package opt

import (
	"errors"
	"math"

	"repro/internal/mat"
)

// Objective evaluates f(x) and writes ∇f(x) into grad.
type Objective func(x, grad []float64) float64

// LBFGSOptions configure Minimize.
type LBFGSOptions struct {
	// Memory is the number of correction pairs (default 10).
	Memory int
	// MaxIter caps outer iterations (default 200).
	MaxIter int
	// GradTol stops when ‖∇f‖∞ ≤ GradTol (default 1e-6).
	GradTol float64
	// FTol stops when the relative decrease of f falls below FTol
	// (default 1e-12).
	FTol float64
}

// LBFGSResult reports a minimization.
type LBFGSResult struct {
	F          float64
	Iterations int
	Evals      int
	Converged  bool
}

func (o *LBFGSOptions) defaults() {
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.FTol <= 0 {
		o.FTol = 1e-12
	}
}

// Minimize runs L-BFGS from x (updated in place) and returns the result.
func Minimize(f Objective, x []float64, opt LBFGSOptions) LBFGSResult {
	opt.defaults()
	n := len(x)
	g := make([]float64, n)
	fx := f(x, g)
	res := LBFGSResult{F: fx, Evals: 1}

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair
	d := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	alphaBuf := make([]float64, opt.Memory)

	for iter := 0; iter < opt.MaxIter; iter++ {
		if infNorm(g) <= opt.GradTol {
			res.Converged = true
			break
		}
		// Two-loop recursion: d = -H·g.
		copy(d, g)
		for i := len(hist) - 1; i >= 0; i-- {
			p := hist[i]
			alphaBuf[i] = p.rho * mat.Dot(p.s, d)
			mat.Axpy(-alphaBuf[i], p.y, d)
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gamma := mat.Dot(last.s, last.y) / mat.Dot(last.y, last.y)
			mat.Scal(gamma, d)
		}
		for i := 0; i < len(hist); i++ {
			p := hist[i]
			beta := p.rho * mat.Dot(p.y, d)
			mat.Axpy(alphaBuf[i]-beta, p.s, d)
		}
		mat.Scal(-1, d)

		dg := mat.Dot(d, g)
		if dg >= 0 {
			// Not a descent direction (stale curvature); restart with -g.
			hist = hist[:0]
			copy(d, g)
			mat.Scal(-1, d)
			dg = -mat.Dot(g, g)
		}

		// Backtracking Armijo line search.
		step := 1.0
		if iter == 0 {
			step = 1 / math.Max(1, infNorm(g))
		}
		const c1 = 1e-4
		var fNew float64
		ok := false
		for ls := 0; ls < 60; ls++ {
			copy(xNew, x)
			mat.Axpy(step, d, xNew)
			fNew = f(xNew, gNew)
			res.Evals++
			if fNew <= fx+c1*step*dg && !math.IsNaN(fNew) {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			break
		}

		// Curvature pair.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := mat.Dot(s, y)
		if sy > 1e-12*mat.Nrm2(s)*mat.Nrm2(y) {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > opt.Memory {
				hist = hist[1:]
			}
		}

		prevF := fx
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		res.Iterations = iter + 1
		if math.Abs(prevF-fx) <= opt.FTol*(1+math.Abs(fx)) {
			res.Converged = true
			break
		}
	}
	res.F = fx
	return res
}

func infNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ErrNoBracket reports that bisection endpoints do not bracket a root.
var ErrNoBracket = errors.New("opt: bisection endpoints do not bracket a root")
