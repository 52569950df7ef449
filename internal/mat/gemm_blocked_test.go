package mat

import (
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// relTol scales a comparison tolerance by the summation length.
func relTol(k int) float64 { return 1e-12 * float64(k+1) }

// TestBlockedMulMatchesReference drives the packed kernels at sizes large
// enough to take the blocked path, including dimensions that are not
// multiples of the 4×8 micro-tile and of the cache-block sizes.
func TestBlockedMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ m, k, n int }{
		{16, 16, 16},
		{64, 64, 64},
		{67, 129, 35},
		{128, 300, 70},
		{257, 261, 259}, // crosses gemmKC/gemmMC/gemmNC boundaries, odd edges
		{30, 512, 40},
	}
	for _, tc := range cases {
		a := randDense(rng, tc.m, tc.k)
		b := randDense(rng, tc.k, tc.n)
		got := Mul(nil, a, b)
		want := RefMul(nil, a, b)
		if d := MaxAbsDiff(got, want); d > relTol(tc.k) {
			t.Errorf("Mul %dx%dx%d: mismatch %g", tc.m, tc.k, tc.n, d)
		}

		at := randDense(rng, tc.k, tc.m) // aᵀ operand: k×m so aᵀ is m×k
		gotTA := MulTransA(nil, at, b)
		wantTA := RefMulTransA(nil, at, b)
		if d := MaxAbsDiff(gotTA, wantTA); d > relTol(tc.k) {
			t.Errorf("MulTransA %dx%dx%d: mismatch %g", tc.m, tc.k, tc.n, d)
		}

		bt := randDense(rng, tc.n, tc.k)
		gotTB := MulTransB(nil, a, bt)
		wantTB := RefMulTransB(nil, a, bt)
		if d := MaxAbsDiff(gotTB, wantTB); d > relTol(tc.k) {
			t.Errorf("MulTransB %dx%dx%d: mismatch %g", tc.m, tc.k, tc.n, d)
		}
	}
}

func TestBlockedMatVecAndRowDots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 301, 129)
	x := make([]float64, 129)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MatVec(nil, a, x)
	want := RefMatVec(nil, a, x)
	for i := range got {
		if d := abs(got[i] - want[i]); d > relTol(129) {
			t.Fatalf("MatVec row %d: mismatch %g", i, d)
		}
	}
	b := randDense(rng, 301, 129)
	rd := RowDots(nil, a, b)
	for i := range rd {
		want := Dot(a.Row(i), b.Row(i))
		if d := abs(rd[i] - want); d > relTol(129) {
			t.Fatalf("RowDots row %d: mismatch %g", i, d)
		}
	}
}

func TestWeightedGramSymmetricAndMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ n, d int }{{5, 3}, {130, 17}, {1000, 40}} {
		x := randDense(rng, tc.n, tc.d)
		w := make([]float64, tc.n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		w[0] = 0 // zero-weight row must be skipped cleanly
		got := WeightedGram(nil, x, w)
		want := RefWeightedGram(nil, x, w)
		if d := MaxAbsDiff(got, want); d > relTol(tc.n) {
			t.Errorf("WeightedGram n=%d d=%d: mismatch %g", tc.n, tc.d, d)
		}
		for i := 0; i < tc.d; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("WeightedGram not exactly symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	v := ws.Vec(64)
	ws.PutVec(v)
	v2 := ws.Vec(64)
	if &v[0] != &v2[0] {
		t.Fatal("Vec did not reuse the returned buffer")
	}
	m := ws.Matrix(8, 8)
	hdr := m
	ws.PutMatrix(m)
	m2 := ws.Matrix(8, 8)
	if m2 != hdr {
		t.Fatal("Matrix did not reuse the returned header")
	}
	data := make([]float64, 12)
	view := ws.View(data, 3, 4)
	if view.Rows != 3 || view.Cols != 4 || &view.Data[0] != &data[0] {
		t.Fatal("View built wrong header")
	}
	ws.PutView(view)
	// nil workspace falls back to allocation everywhere.
	var nilWS *Workspace
	if got := nilWS.Vec(5); len(got) != 5 {
		t.Fatal("nil workspace Vec broken")
	}
	nilWS.PutVec(nil)
	nilWS.PutMatrix(nil)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
