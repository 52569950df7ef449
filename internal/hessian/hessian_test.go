package hessian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/softmax"
)

// randSet builds a random Set with softmax-valid probability rows.
func randSet(rng *rand.Rand, n, d, c int) *Set {
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	h := mat.NewDense(n, c)
	for i := 0; i < n; i++ {
		row := h.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		softmax.SoftmaxInPlace(row)
	}
	return NewSet(x, h)
}

// matVec is the s=1 case of MatVecBlockWS: dst = Σ_i w_i H_i v, with dst
// allocated when nil.
func matVec(ws *mat.Workspace, p Pool, dst, v, w []float64) []float64 {
	if dst == nil {
		dst = make([]float64, p.Ed())
	}
	dt, vt := ws.View(dst, 1, len(dst)), ws.View(v, 1, len(v))
	MatVecBlockWS(ws, p, dt, vt, w)
	ws.PutView(vt)
	ws.PutView(dt)
	return dst
}

// quadAccum is the s=1 case of QuadAccumBlockWS: dst[i] += scale·uᵀH_i v.
func quadAccum(ws *mat.Workspace, p Pool, dst, u, v []float64, scale float64) {
	ut, vt := ws.View(u, 1, len(u)), ws.View(v, 1, len(v))
	QuadAccumBlockWS(ws, p, dst, ut, vt, scale)
	ws.PutView(vt)
	ws.PutView(ut)
}

func TestDensePointMatchesKroneckerDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, c := 3, 4
	s := randSet(rng, 1, d, c)
	hm := DensePoint(s.X.Row(0), s.H.Row(0))
	if hm.Rows != d*c || hm.Cols != d*c {
		t.Fatalf("shape %dx%d", hm.Rows, hm.Cols)
	}
	// Element check: H[(k,r),(l,q)] = S_kl x_r x_q with S = diag(h)-hhᵀ.
	x, h := s.X.Row(0), s.H.Row(0)
	for k := 0; k < c; k++ {
		for l := 0; l < c; l++ {
			skl := -h[k] * h[l]
			if k == l {
				skl += h[k]
			}
			for r := 0; r < d; r++ {
				for q := 0; q < d; q++ {
					want := skl * x[r] * x[q]
					got := hm.At(k*d+r, l*d+q)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("H[(%d,%d),(%d,%d)] = %g want %g", k, r, l, q, got, want)
					}
				}
			}
		}
	}
}

// TestLemma2FastMatvec is the central property test: the matrix-free
// matvec must agree with the dense Kronecker operator for arbitrary
// points, probabilities, and vectors.
func TestLemma2FastMatvec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		d := 1 + rng.Intn(5)
		c := 2 + rng.Intn(4)
		s := randSet(rng, n, d, c)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		v := make([]float64, d*c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		fast := matVec(nil, s, nil, v, w)
		dense := s.DenseSum(w)
		want := mat.MatVec(nil, dense, v)
		for i := range want {
			if math.Abs(fast[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPointMatVecMatchesDense checks the matvec of one point's Hessian,
// H_i v, against the dense Kronecker form of Eq. 2.
func TestPointMatVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(5)
		c := 2 + rng.Intn(4)
		s := randSet(rng, 1, d, c)
		x, h := s.X.Row(0), s.H.Row(0)
		v := make([]float64, d*c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		fast := matVec(nil, s, nil, v, nil)
		want := mat.MatVec(nil, DensePoint(x, h), v)
		for i := range want {
			if math.Abs(fast[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadAccumMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d, c := 7, 4, 3
	s := randSet(rng, n, d, c)
	u := make([]float64, d*c)
	v := make([]float64, d*c)
	for i := range u {
		u[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	quadAccum(nil, s, got, u, v, 2.5)
	for i := 0; i < n; i++ {
		hi := DensePoint(s.X.Row(i), s.H.Row(i))
		want := 2.5 * mat.Dot(u, mat.MatVec(nil, hi, v))
		if math.Abs(got[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("point %d: %g want %g", i, got[i], want)
		}
	}
}

// TestBlockDiagMatchesDense verifies Eq. 14–15: the k-th diagonal block of
// the dense Hessian sum equals h_k(1−h_k)·x xᵀ summed with weights.
func TestBlockDiagMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		d := 1 + rng.Intn(4)
		c := 2 + rng.Intn(3)
		s := randSet(rng, n, d, c)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		blocks := BlockDiagSumInto(nil, s, nil, w)
		dense := s.DenseSum(w)
		for k := 0; k < c; k++ {
			want := mat.Block(dense, k, k, d)
			if mat.MaxAbsDiff(blocks[k], want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHessianPSD(t *testing.T) {
	// Fisher information matrices are PSD: check eigenvalues of a random
	// point Hessian.
	rng := rand.New(rand.NewSource(4))
	s := randSet(rng, 1, 3, 4)
	hm := DensePoint(s.X.Row(0), s.H.Row(0))
	vals, err := mat.SymEigvals(hm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < -1e-10 {
			t.Fatalf("negative eigenvalue %g", v)
		}
	}
}

func TestAddBlockDiagPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, c := 3, 4
	s := randSet(rng, 1, d, c)
	x, h := s.X.Row(0), s.H.Row(0)
	blocks := make([]*mat.Dense, c)
	for k := range blocks {
		blocks[k] = mat.NewDense(d, d)
	}
	AddBlockDiagPoint(blocks, x, h, 1)
	want := BlockDiagSumInto(nil, s, nil, nil)
	for k := 0; k < c; k++ {
		if mat.MaxAbsDiff(blocks[k], want[k]) > 1e-10 {
			t.Fatalf("block %d mismatch", k)
		}
	}
}

// TestMatVecSumLinearity: H(Ho+Hz) v = Ho v + Hz v when combining two sets.
func TestMatVecSumLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, c := 3, 3
	a := randSet(rng, 4, d, c)
	b := randSet(rng, 5, d, c)
	v := make([]float64, d*c)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	wb := make([]float64, 5)
	for i := range wb {
		wb[i] = rng.Float64()
	}
	ra := matVec(nil, a, nil, v, nil)
	rb := matVec(nil, b, nil, v, wb)
	sum := make([]float64, d*c)
	for i := range sum {
		sum[i] = ra[i] + rb[i]
	}
	// Dense combined
	da := a.DenseSum(nil)
	db := b.DenseSum(wb)
	da.AddScaled(1, db)
	want := mat.MatVec(nil, da, v)
	for i := range want {
		if math.Abs(sum[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("linearity mismatch at %d", i)
		}
	}
}
