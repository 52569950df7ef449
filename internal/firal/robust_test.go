package firal

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// TestExactGradientFiniteDifference validates the exact RELAX gradient
// g_i = ∂f/∂z_i = −Trace(H_i Σz⁻¹ Hp Σz⁻¹) against central differences of
// f(z) = Trace(Σz⁻¹ Hp).
func TestExactGradientFiniteDifference(t *testing.T) {
	p := testProblem(30, 5, 8, 3, 3)
	n := p.N()
	z := uniformSimplex(n)

	// Analytic gradient (the inner loop of RelaxExact, recomputed here
	// explicitly from the dense operators).
	hp := p.ResidentPool().DenseSum(nil)
	sigma := p.DenseSigma(z)
	sigInv, err := mat.InvSPD(sigma)
	if err != nil {
		t.Fatal(err)
	}
	m := mat.Mul(nil, mat.Mul(nil, sigInv, hp), sigInv)
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		hi := hessian.DensePoint(p.ResidentPool().X.Row(i), p.ResidentPool().H.Row(i))
		grad[i] = -mat.FrobDot(hi, m)
	}

	f := func(z []float64) float64 {
		s := p.DenseSigma(z)
		inv, err := mat.InvSPD(s)
		if err != nil {
			t.Fatal(err)
		}
		return mat.Mul(nil, inv, hp).Trace()
	}
	const h = 1e-6
	for i := 0; i < n; i += 3 { // subsample for speed
		zp := append([]float64(nil), z...)
		zp[i] += h
		zm := append([]float64(nil), z...)
		zm[i] -= h
		num := (f(zp) - f(zm)) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %g, numerical %g", i, grad[i], num)
		}
	}
}

// TestRelaxFastHandlesConfidentModel: when the classifier is extremely
// confident, the Fisher curvature weights h(1−h) vanish and Σ blocks are
// nearly singular; the ridge guards must keep the solver running.
func TestRelaxFastHandlesConfidentModel(t *testing.T) {
	p := testProblem(40, 8, 20, 3, 3)
	// Push probabilities to near-one-hot.
	for _, set := range []*hessian.Set{p.Labeled, p.ResidentPool()} {
		for i := 0; i < set.N(); i++ {
			row := set.H.Row(i)
			for k := range row {
				if row[k] > 0.5 {
					row[k] = 1 - 1e-9
				} else {
					row[k] = 1e-9 / float64(len(row))
				}
			}
		}
	}
	res, err := RelaxFast(context.Background(), p, 5, RelaxOptions{MaxIter: 5, Seed: 1})
	if err != nil {
		t.Fatalf("solver failed on near-singular problem: %v", err)
	}
	for _, v := range res.Z {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("invalid weight %g", v)
		}
	}
}

// TestRoundFastHandlesDegeneratePool: all pool points identical — scores
// tie, selection must still return b distinct indices.
func TestRoundFastHandlesDegeneratePool(t *testing.T) {
	base := testProblem(41, 6, 1, 3, 3)
	x := mat.NewDense(8, 3)
	h := mat.NewDense(8, 2)
	for i := 0; i < 8; i++ {
		copy(x.Row(i), base.ResidentPool().X.Row(0))
		copy(h.Row(i), base.ResidentPool().H.Row(0))
	}
	p := NewProblem(base.Labeled, hessian.NewSet(x, h))
	z := uniformSimplex(8)
	mat.Scal(4, z)
	res, err := RoundFast(p, z, 4, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %d of identical points", len(res.Selected))
	}
	seen := map[int]bool{}
	for _, i := range res.Selected {
		if seen[i] {
			t.Fatal("duplicate under ties")
		}
		seen[i] = true
	}
}

// TestRoundRejectsNonFiniteScore: a NaN feature gives its point a NaN
// ROUND score. The round must fail with ErrNonFinite rather than skip the
// point and return fewer than b selections. The point and the rest of its
// four-row Gram group carry no RELAX weight, so Σ⋄ stays finite and that
// point's own score is the only non-finite value; excluding the point
// therefore gives a full round.
func TestRoundRejectsNonFiniteScore(t *testing.T) {
	base := testProblem(43, 6, 24, 3, 3)
	pool := base.ResidentPool()
	x := pool.X.Clone()
	x.Set(12, 0, math.NaN())
	p := NewProblem(base.Labeled, hessian.NewSet(x, pool.H))
	z := uniformSimplex(24)
	mat.Scal(4, z)
	for i := 12; i < 16; i++ {
		z[i] = 0
	}
	if _, err := RoundFast(p, z, 4, RoundOptions{}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN score: err = %v, want ErrNonFinite", err)
	}
	res, err := RoundFast(p, z, 4, RoundOptions{Exclude: []int{12}})
	if err != nil {
		t.Fatalf("NaN point excluded: %v", err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("NaN point excluded: %d selections, want 4", len(res.Selected))
	}
}

// nanPlacements poisons one value of a problem built from (labeled,
// pool): a pool feature, a pool probability, or a labeled feature. The
// pool entries sit at row 12, which two ranks place in rank 1's slice.
var nanPlacements = []struct {
	name   string
	poison func(labeled, pool *hessian.Set)
}{
	{"pool feature", func(_, pool *hessian.Set) { pool.X.Set(12, 0, math.NaN()) }},
	{"pool probability", func(_, pool *hessian.Set) { pool.H.Set(12, 1, math.NaN()) }},
	{"labeled feature", func(labeled, _ *hessian.Set) { labeled.X.Set(2, 1, math.NaN()) }},
}

// TestNonFiniteSigmaIsTyped: a NaN in the pool's features or
// probabilities, or in the labeled features, poisons Σz. RELAX and ROUND
// must both fail with ErrNonFinite, not with a factorization or
// eigensolver error.
func TestNonFiniteSigmaIsTyped(t *testing.T) {
	for _, pl := range nanPlacements {
		base := testProblem(44, 6, 24, 3, 3)
		pool := base.ResidentPool()
		labeled := hessian.NewSet(base.Labeled.X.Clone(), base.Labeled.H.Clone())
		bad := hessian.NewSet(pool.X.Clone(), pool.H.Clone())
		pl.poison(labeled, bad)
		p := NewProblem(labeled, bad)
		if _, err := RelaxFast(context.Background(), p, 4, RelaxOptions{MaxIter: 3, Seed: 1}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: RelaxFast err = %v, want ErrNonFinite", pl.name, err)
		}
		z := uniformSimplex(bad.N())
		mat.Scal(4, z)
		if _, err := RoundFast(p, z, 4, RoundOptions{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: RoundFast err = %v, want ErrNonFinite", pl.name, err)
		}
	}
}

// TestLowRankFeatures: pool features confined to a 1-D subspace make Σ
// rank-deficient in feature space; the ridge path must still produce a
// selection.
func TestLowRankFeatures(t *testing.T) {
	d, c := 4, 3
	n := 12
	x := mat.NewDense(n, d)
	h := mat.NewDense(n, c-1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i+1)) // only dimension 0 populated
		h.Set(i, 0, 0.4)
		h.Set(i, 1, 0.3)
	}
	xo := mat.NewDense(3, d)
	hO := mat.NewDense(3, c-1)
	for i := 0; i < 3; i++ {
		xo.Set(i, 0, 1)
		hO.Set(i, 0, 0.5)
		hO.Set(i, 1, 0.2)
	}
	p := NewProblem(hessian.NewSet(xo, hO), hessian.NewSet(x, h))
	res, err := SelectApprox(context.Background(), p, 3, Options{Relax: RelaxOptions{MaxIter: 3, Seed: 2, CGMaxIter: 30}})
	if err != nil {
		t.Fatalf("rank-deficient selection failed: %v", err)
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %d", len(res.Selected))
	}
}

// TestStochasticConvergedBehaviour pins the windowed stopping rule.
func TestStochasticConvergedBehaviour(t *testing.T) {
	// Too short: never converged.
	if StochasticConverged([]float64{1, 1, 1}, 1e-4) {
		t.Fatal("converged with < 2 windows")
	}
	// Flat series: converged.
	flat := make([]float64, 12)
	for i := range flat {
		flat[i] = 5
	}
	if !StochasticConverged(flat, 1e-4) {
		t.Fatal("flat series should converge")
	}
	// Steep descent with tiny noise: not converged.
	desc := make([]float64, 12)
	for i := range desc {
		desc[i] = 100 - 10*float64(i) + 0.001*float64(i%2)
	}
	if StochasticConverged(desc, 1e-4) {
		t.Fatal("steep descent should not converge")
	}
	// Plateau within noise (both comparison windows flat): converged via
	// the noise-floor criterion.
	noisy := []float64{50, 30, 20, 15, 12,
		10.2, 9.8, 10.1, 9.9, 10.0, // first window on the plateau
		10.05, 9.95, 10.02, 9.98, 10.01} // second window
	if !StochasticConverged(noisy, 1e-4) {
		t.Fatal("noise-level plateau should converge")
	}
}

func TestDefaultEta(t *testing.T) {
	p := testProblem(50, 6, 10, 4, 3)
	want := 8 * math.Sqrt(float64(4*2)) // d=4, c−1=2 blocks
	if math.Abs(p.DefaultEta()-want) > 1e-12 {
		t.Fatalf("DefaultEta %g want %g", p.DefaultEta(), want)
	}
}

// commScalars is a Collective whose scalar allreduces run over an
// *mpi.Comm: all the mirror step needs.
type commScalars struct {
	solo
	c *mpi.Comm
}

func (a commScalars) AllreduceScalar(x float64, op mpi.Op) float64 { return a.c.AllreduceScalar(x, op) }

// TestMirrorStepNonFiniteGradient pins the mirror step's guard: a NaN or
// infinite gradient entry returns ErrNonFinite instead of leaving z as
// it was (an all-NaN gradient used to reduce to a zero ∞-norm). At two
// ranks only rank 1 holds the bad entry, and both ranks must fail.
func TestMirrorStepNonFiniteGradient(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		z := []float64{0.25, 0.25, 0.25, 0.25}
		if err := mirrorStep(solo{}, z, []float64{bad, bad, bad, bad}, 1); !errors.Is(err, ErrNonFinite) {
			t.Errorf("serial gradient %g: err = %v, want ErrNonFinite", bad, err)
		}
		errs := make([]error, 2)
		if _, err := mpi.Run(2, func(c *mpi.Comm) {
			g := []float64{1, -2}
			if c.Rank() == 1 {
				g[1] = bad
			}
			errs[c.Rank()] = mirrorStep(commScalars{c: c}, []float64{0.25, 0.25}, g, 1)
		}); err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("rank %d of 2, gradient %g on rank 1: err = %v, want ErrNonFinite", r, bad, err)
			}
		}
	}
}

// TestSolveNuRejectsNonFinite: a NaN or infinite eigenvalue in the ν
// solve is ErrNonFinite, not opt.ErrNoBracket, and not a finite ν from a
// sum that (ν + ∞)⁻² drops out of.
func TestSolveNuRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		lam := []float64{0, 0.3, bad, 2.2}
		if nu, err := solveNu(lam, float64(len(lam))); !errors.Is(err, ErrNonFinite) {
			t.Errorf("λ = %g: ν = %g, err = %v, want ErrNonFinite", bad, nu, err)
		}
	}
}
