package mat

import (
	"math"
	"testing"
)

// spdFromFactor builds a well-conditioned SPD matrix G·Gᵀ + I from a
// deterministic pseudo-random factor.
func spdFromFactor(n int, seed uint64) *Dense {
	g := NewDense(n, n)
	s := seed
	for i := range g.Data {
		s = s*6364136223846793005 + 1442695040888963407
		g.Data[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
	a := MulTransB(nil, g, g)
	a.AddDiag(float64(n))
	return a
}

func TestFactorIntoMatchesNewCholesky(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := spdFromFactor(n, uint64(n)+7)
		want, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		var c Cholesky
		// Factor twice into the same storage, with a different matrix in
		// between, to prove reuse leaves no residue.
		other := spdFromFactor(n, uint64(n)+99)
		if err := c.factor(other, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.factor(a, 0); err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(want.L, c.L); d != 0 {
			t.Fatalf("n=%d: reused factor differs from fresh factor by %g", n, d)
		}
		// a must be untouched.
		check := spdFromFactor(n, uint64(n)+7)
		if d := MaxAbsDiff(a, check); d != 0 {
			t.Fatalf("n=%d: factor modified its input (diff %g)", n, d)
		}
	}
}

func TestFactorRidgeMatchesNewCholeskyRidge(t *testing.T) {
	// Rank-deficient: x xᵀ needs a ridge for n > 1.
	n := 6
	a := NewDense(n, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	a.AddOuter(1, x)
	want, wantRidge, err := NewCholeskyRidge(a.Clone(), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	var c Cholesky
	ridge, err := c.FactorRidge(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ridge != wantRidge {
		t.Fatalf("ridge %g, want %g", ridge, wantRidge)
	}
	if d := MaxAbsDiff(want.L, c.L); d != 0 {
		t.Fatalf("ridged factor differs by %g", d)
	}
	if ridge == 0 {
		t.Fatal("expected a nonzero ridge for a rank-1 matrix")
	}
}

func TestSolveIntoAndInverseInto(t *testing.T) {
	n := 12
	a := spdFromFactor(n, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()

	// InverseInto into reused storage equals Inverse.
	want := ch.Inverse()
	dst := NewDense(n, n)
	Fill(dst.Data, math.NaN()) // residue must be fully overwritten
	ch.InverseInto(ws, dst)
	if d := MaxAbsDiff(want, dst); d != 0 {
		t.Fatalf("InverseInto differs from Inverse by %g", d)
	}

	// A·A⁻¹ ≈ I.
	prod := Mul(nil, a, dst)
	eye := Eye(n)
	if d := MaxAbsDiff(prod, eye); d > 1e-10 {
		t.Fatalf("A·A⁻¹ off identity by %g", d)
	}

	// SolveInto with a warm workspace matches a workspace-free solve and
	// is allocation-free.
	b := spdFromFactor(n, 11)
	wantX := ch.SolveInto(nil, nil, b)
	x := NewDense(n, n)
	ch.SolveInto(ws, x, b)
	if d := MaxAbsDiff(wantX, x); d != 0 {
		t.Fatalf("SolveInto with a workspace differs from one without by %g", d)
	}
	if !RaceEnabled {
		var rc Cholesky
		if allocs := testing.AllocsPerRun(20, func() {
			if err := rc.factor(a, 0); err != nil {
				t.Fatal(err)
			}
			ch.SolveInto(ws, x, b)
			ch.InverseInto(ws, dst)
		}); allocs > 1 { // rc.L allocated once on the warm-up run only
			t.Fatalf("warm factor+SolveInto+InverseInto allocates %.1f objects per call", allocs)
		}
	}
}
