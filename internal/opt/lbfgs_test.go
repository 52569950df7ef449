package opt

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func TestLBFGSQuadratic(t *testing.T) {
	// f(x) = 0.5 xᵀ D x − bᵀx with diagonal D.
	d := []float64{1, 4, 9, 16}
	b := []float64{1, 1, 1, 1}
	f := func(x, g []float64) float64 {
		var v float64
		for i := range x {
			g[i] = d[i]*x[i] - b[i]
			v += 0.5*d[i]*x[i]*x[i] - b[i]*x[i]
		}
		return v
	}
	x := make([]float64, 4)
	res := Minimize(f, x, LBFGSOptions{GradTol: 1e-10})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range x {
		want := b[i] / d[i]
		if math.Abs(x[i]-want) > 1e-6 {
			t.Fatalf("x[%d] = %g want %g", i, x[i], want)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	f := func(x, g []float64) float64 {
		a, b := x[0], x[1]
		g[0] = -400*a*(b-a*a) - 2*(1-a)
		g[1] = 200 * (b - a*a)
		return 100*(b-a*a)*(b-a*a) + (1-a)*(1-a)
	}
	x := []float64{-1.2, 1}
	res := Minimize(f, x, LBFGSOptions{MaxIter: 500, GradTol: 1e-8, FTol: 1e-16})
	if math.Abs(x[0]-1) > 1e-4 || math.Abs(x[1]-1) > 1e-4 {
		t.Fatalf("Rosenbrock minimum not found: %v (res %+v)", x, res)
	}
}

func TestLBFGSLogSumExp(t *testing.T) {
	// Smooth convex: f(x) = log(Σ exp(x_i)) + 0.5‖x‖²; unique minimum.
	f := func(x, g []float64) float64 {
		m := x[0]
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		var s float64
		for _, v := range x {
			s += math.Exp(v - m)
		}
		lse := m + math.Log(s)
		var q float64
		for i, v := range x {
			g[i] = math.Exp(v-m)/s + v
			q += v * v
		}
		return lse + 0.5*q
	}
	x := []float64{3, -2, 0.5}
	res := Minimize(f, x, LBFGSOptions{})
	g := make([]float64, 3)
	f(x, g)
	if mat.Nrm2(g) > 1e-5 {
		t.Fatalf("gradient not small: %v (res %+v)", g, res)
	}
}
