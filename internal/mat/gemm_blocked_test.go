package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
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

// TestMulWSMatchesMul checks that MulWS and MulTransAWS give Mul's and
// MulTransA's bits on both the blocked and the small path, whatever the
// worker count, and that a warm workspace makes them allocate nothing.
func TestMulWSMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := NewWorkspace()
	for _, w := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(w))
			for _, sh := range [][3]int{{3, 5, 4}, {16, 8, 8}, {32, 32, 32}, {64, 64, 64}, {70, 33, 300}} {
				m, k, n := sh[0], sh[1], sh[2]
				a, at, b := randDense(rng, m, k), randDense(rng, k, m), randDense(rng, k, n)
				a.Data[0], at.Data[0] = 0, 0 // the small paths skip zero terms
				want, got := Mul(nil, a, b), NewDense(m, n)
				MulWS(ws, got, a, b)
				wantT, gotT := MulTransA(nil, at, b), NewDense(m, n)
				MulTransAWS(ws, gotT, at, b)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) ||
						math.Float64bits(gotT.Data[i]) != math.Float64bits(wantT.Data[i]) {
						t.Fatalf("%d workers, %d×%d×%d: element %d differs", w, m, k, n, i)
					}
				}
				if !RaceEnabled {
					if allocs := testing.AllocsPerRun(10, func() { MulWS(ws, got, a, b); MulTransAWS(ws, gotT, at, b) }); allocs != 0 {
						t.Errorf("%d×%d×%d: %.1f allocations per warm call", m, k, n, allocs)
					}
				}
			}
		})
	}
}
