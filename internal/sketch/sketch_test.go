package sketch

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rnd"
)

// Probes returns s independent length-n Rademacher vectors as slices.
func Probes(rng *rnd.Source, n, s int) [][]float64 {
	out := make([][]float64, s)
	for j := range out {
		out[j] = make([]float64, n)
		rng.Rademacher(out[j])
	}
	return out
}

// HutchinsonTrace estimates Trace(A) for the linear operator apply
// (dst = A·v) acting on R^n using s Rademacher probes.
func HutchinsonTrace(apply func(dst, v []float64), n, s int, rng *rnd.Source) float64 {
	v := make([]float64, n)
	av := make([]float64, n)
	var acc float64
	for j := 0; j < s; j++ {
		rng.Rademacher(v)
		apply(av, v)
		acc += mat.Dot(v, av)
	}
	return acc / float64(s)
}

// TraceFromProbes estimates Trace(A) from precomputed probe columns V and
// their images AV = A·V (both n×s). This matches how Algorithm 2 reuses
// the CG solutions: the same probe block serves the trace estimates of all
// n gradient entries.
func TraceFromProbes(v, av *mat.Dense) float64 {
	if v.Rows != av.Rows || v.Cols != av.Cols {
		panic("sketch: probe shape mismatch")
	}
	var acc float64
	col1 := make([]float64, v.Rows)
	col2 := make([]float64, v.Rows)
	for j := 0; j < v.Cols; j++ {
		v.Col(col1, j)
		av.Col(col2, j)
		acc += mat.Dot(col1, col2)
	}
	return acc / float64(v.Cols)
}

func TestHutchinsonUnbiasedOnDiagonal(t *testing.T) {
	// For diagonal A, vᵀAv = Σ a_ii v_i² = Trace(A) exactly for Rademacher
	// probes, so even one probe is exact.
	n := 10
	a := mat.NewDense(n, n)
	var trace float64
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(i+1))
		trace += float64(i + 1)
	}
	got := HutchinsonTrace(func(dst, v []float64) { mat.MatVec(dst, a, v) }, n, 1, rnd.New(2))
	if math.Abs(got-trace) > 1e-10 {
		t.Fatalf("diagonal trace %g want %g", got, trace)
	}
}

func TestHutchinsonConvergesOnDense(t *testing.T) {
	rng := rnd.New(3)
	n := 30
	x := mat.NewDense(n+2, n)
	rng.Normal(x.Data, 0, 1)
	a := mat.MulTransA(nil, x, x)
	trace := a.Trace()
	est := HutchinsonTrace(func(dst, v []float64) { mat.MatVec(dst, a, v) }, n, 4000, rnd.New(4))
	if math.Abs(est-trace) > 0.1*math.Abs(trace) {
		t.Fatalf("Hutchinson estimate %g too far from %g", est, trace)
	}
}

func TestTraceFromProbes(t *testing.T) {
	rng := rnd.New(5)
	n, s := 12, 64
	a := mat.Eye(n)
	a.Scale(3)
	v := mat.NewDense(n, s)
	rng.Rademacher(v.Data)
	av := mat.Mul(nil, a, v)
	got := TraceFromProbes(v, av)
	if math.Abs(got-3*float64(n)) > 1e-9 {
		t.Fatalf("TraceFromProbes %g want %g", got, 3*float64(n))
	}
	// The transposed form RELAX runs sums in the same order.
	if gotT := TraceFromProbesT(v.T(), av.T()); gotT != got {
		t.Fatalf("TraceFromProbesT %g, column form %g", gotT, got)
	}
}

func TestProbes(t *testing.T) {
	ps := Probes(rnd.New(6), 8, 3)
	if len(ps) != 3 || len(ps[0]) != 8 {
		t.Fatal("Probes shape wrong")
	}
}
