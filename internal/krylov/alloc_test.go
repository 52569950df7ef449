package krylov

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestPCGZeroAllocWithWorkspace pins the steady-state allocation behaviour
// of repeated one-column preconditioned solves (SolveBlockInto at s=1)
// drawing scratch from a Workspace: zero after the warm-up solve,
// provided the operator and preconditioner are themselves
// allocation-free and the results slice is reused.
func TestPCGZeroAllocWithWorkspace(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const n = 64
	rng := rand.New(rand.NewSource(8))
	spd := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			spd.Set(i, j, v)
			spd.Set(j, i, v)
		}
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	b := mat.NewDense(1, n)
	x := mat.NewDense(1, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := perColumnBlockOp(func(dst, v []float64) { mat.MatVec(dst, spd, v) })
	diag := perColumnBlockOp(func(dst, v []float64) {
		for i := range dst {
			dst[i] = v[i] / spd.At(i, i)
		}
	})
	opt := Options{Tol: 1e-10, MaxIter: 200, Workspace: mat.NewWorkspace()}
	var results []Result
	solve := func() {
		results = SolveBlockInto(context.Background(), a, diag, b, x, results, opt)
		if !results[0].Converged {
			t.Fatal("PCG did not converge on SPD test matrix")
		}
	}
	solve() // warm
	if allocs := testing.AllocsPerRun(30, solve); allocs != 0 {
		t.Fatalf("one-column solve allocates %.1f objects per solve with a warm workspace", allocs)
	}
}
