package krylov

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func denseOp(a *mat.Dense) Op {
	return func(dst, v []float64) {
		mat.MatVec(dst, a, v)
	}
}

// solve runs SolveBlockInto on one right-hand side (the s=1 block);
// a nil precond means plain CG.
func solve(ctx context.Context, a, precond Op, b, x []float64, opt Options) Result {
	var bp BlockOp
	if precond != nil {
		bp = perColumnBlockOp(precond)
	}
	bt := &mat.Dense{Rows: 1, Cols: len(b), Stride: len(b), Data: b}
	xt := &mat.Dense{Rows: 1, Cols: len(x), Stride: len(x), Data: x}
	return SolveBlockInto(ctx, perColumnBlockOp(a), bp, bt, xt, nil, opt)[0]
}

func randSPD(rng *rand.Rand, n int, cond float64) *mat.Dense {
	// Build SPD with controlled condition number via random orthogonal-ish
	// basis from QR-free construction: A = Σ λ_i q_i q_iᵀ using Gram.
	x := mat.NewDense(n+5, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := mat.MulTransA(nil, x, x)
	a.AddDiag(float64(n) / cond)
	return a
}

func TestCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(rng, n, 100)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res := solve(context.Background(), denseOp(a), nil, b, x, Options{Tol: 1e-10})
		if !res.Converged {
			t.Fatalf("n=%d: CG did not converge (rel=%g)", n, res.RelResidual)
		}
		ax := mat.MatVec(nil, a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6 {
				t.Fatalf("n=%d: residual %g at %d", n, ax[i]-b[i], i)
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := mat.Eye(4)
	x := []float64{1, 2, 3, 4}
	res := solve(context.Background(), denseOp(a), nil, make([]float64, 4), x, Options{})
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("solution of A x = 0 should be 0")
		}
	}
}

func TestPCGWithExactPreconditionerConvergesInOneIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 30
	a := randSPD(rng, n, 1e4)
	inv, err := mat.InvSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res := solve(context.Background(), denseOp(a), denseOp(inv), b, x, Options{Tol: 1e-8})
	if res.Iterations > 3 {
		t.Fatalf("exact preconditioner took %d iterations", res.Iterations)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

// TestPreconditionerReducesIterations encodes the Fig. 1 invariant: a good
// (here: diagonal for a diagonally dominant system) preconditioner must
// reduce CG iteration counts.
func TestPreconditionerReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	a := randSPD(rng, n, 10)
	// Exaggerate diagonal spread so Jacobi preconditioning matters.
	for i := 0; i < n; i++ {
		scale := 1 + 50*rng.Float64()
		a.Set(i, i, a.At(i, i)*scale)
	}
	diagInv := func(dst, v []float64) {
		for i := range v {
			dst[i] = v[i] / a.At(i, i)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	plain := solve(context.Background(), denseOp(a), nil, b, x1, Options{Tol: 1e-8, RecordResiduals: true})
	x2 := make([]float64, n)
	prec := solve(context.Background(), denseOp(a), diagInv, b, x2, Options{Tol: 1e-8, RecordResiduals: true})
	if !plain.Converged || !prec.Converged {
		t.Fatalf("convergence failure: plain=%v prec=%v", plain.Converged, prec.Converged)
	}
	if prec.Iterations >= plain.Iterations {
		t.Fatalf("preconditioner did not help: %d vs %d iterations", prec.Iterations, plain.Iterations)
	}
	if len(plain.Residuals) != plain.Iterations+1 {
		t.Fatalf("residual history length %d for %d iterations", len(plain.Residuals), plain.Iterations)
	}
}

func TestResidualsMonotoneEnough(t *testing.T) {
	// CG residuals need not be monotone, but the recorded history must end
	// below tolerance and start at 1 for x0 = 0.
	rng := rand.New(rand.NewSource(4))
	n := 40
	a := randSPD(rng, n, 100)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res := solve(context.Background(), denseOp(a), nil, b, x, Options{Tol: 1e-9, RecordResiduals: true})
	if math.Abs(res.Residuals[0]-1) > 1e-12 {
		t.Fatalf("initial relative residual %g != 1", res.Residuals[0])
	}
	last := res.Residuals[len(res.Residuals)-1]
	if last > 1e-9 {
		t.Fatalf("final residual %g above tolerance", last)
	}
}

func TestSolveColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, s := 25, 4
	a := randSPD(rng, n, 50)
	b := mat.NewDense(n, s)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x := mat.NewDense(n, s)
	results := SolveColumns(context.Background(), denseOp(a), nil, b, x, Options{Tol: 1e-10})
	if len(results) != s {
		t.Fatalf("expected %d results", s)
	}
	got := mat.Mul(nil, a, x)
	if d := mat.MaxAbsDiff(got, b); d > 1e-5 {
		t.Fatalf("AX != B (%g)", d)
	}
	if TotalIterations(results) <= 0 {
		t.Fatal("iteration accounting broken")
	}
}

func TestMaxIterCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 60
	a := randSPD(rng, n, 1e6)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res := solve(context.Background(), denseOp(a), nil, b, x, Options{Tol: 1e-14, MaxIter: 3})
	if res.Iterations > 3 {
		t.Fatalf("MaxIter not honored: %d", res.Iterations)
	}
}

func TestCancelledContextAbortsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	a := randSPD(rng, n, 1e6)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n)
	res := solve(ctx, denseOp(a), nil, b, x, Options{Tol: 1e-14})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", res.Err)
	}
	if res.Converged {
		t.Fatal("cancelled solve reported convergence")
	}
	if res.Iterations != 0 {
		t.Fatalf("cancelled solve ran %d iterations", res.Iterations)
	}

	bm := mat.NewDense(n, 2)
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	xm := mat.NewDense(n, 2)
	results := SolveColumns(ctx, denseOp(a), nil, bm, xm, Options{Tol: 1e-10})
	if err := FirstError(results); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveColumns: expected context.Canceled, got %v", err)
	}
}
