package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func randSPD(rng *rand.Rand, n int) *Dense {
	x := NewDense(n+3, n)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	a := MulTransA(nil, x, x)
	a.AddDiag(0.5)
	return a
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a, b := NewDense(m, k), NewDense(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got := Mul(nil, a, b)
		want := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for l := 0; l < k; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
				want.Set(i, j, s)
			}
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: Mul mismatch %g", trial, d)
		}
	}
}

func TestMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewDense(7, 4)
	b := NewDense(7, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got := MulTransA(nil, a, b)
	want := Mul(nil, a.T(), b)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("MulTransA mismatch %g", d)
	}
	c := NewDense(6, 5)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	got2 := MulTransB(nil, c, b)
	want2 := Mul(nil, c, b.T())
	if d := maxAbsDiff(got2, want2); d > 1e-12 {
		t.Fatalf("MulTransB mismatch %g", d)
	}
}

func TestMatVecAndTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewDense(9, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	x := make([]float64, 6)
	y := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	// Adjoint identity: yᵀ(Ax) == (Aᵀy)ᵀx.
	lhs := Dot(y, RefMatVec(nil, a, x))
	rhs := Dot(RefMatVec(nil, a.T(), y), x)
	if math.Abs(lhs-rhs) > 1e-10 {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestWeightedGram(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := NewDense(40, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	w := make([]float64, 40)
	for i := range w {
		w[i] = rng.Float64()
	}
	got := WeightedGram(nil, x, w)
	want := NewDense(5, 5)
	for i := 0; i < 40; i++ {
		want.AddOuter(w[i], x.Row(i))
	}
	if d := maxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("WeightedGram mismatch %g", d)
	}
	// nil weights = unit weights
	got2 := WeightedGram(nil, x, nil)
	want2 := MulTransA(nil, x, x)
	if d := maxAbsDiff(got2, want2); d > 1e-10 {
		t.Fatalf("unit WeightedGram mismatch %g", d)
	}
}

func TestCholeskySolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 25} {
		a := randSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Factor reconstructs A.
		rec := MulTransB(nil, ch.L, ch.L)
		if d := maxAbsDiff(rec, a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: LLᵀ != A (%g)", n, d)
		}
		// Solve.
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(nil, b)
		ax := RefMatVec(nil, a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				t.Fatalf("n=%d: solve residual %g", n, ax[i]-b[i])
			}
		}
		// Inverse.
		inv := ch.Inverse()
		id := Mul(nil, a, inv)
		if d := maxAbsDiff(id, Eye(n)); d > 1e-8 {
			t.Fatalf("n=%d: A·A⁻¹ != I (%g)", n, d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD for indefinite matrix")
	}
}

func TestCholeskyRidgeRecovers(t *testing.T) {
	// Rank-1 PSD matrix: plain Cholesky fails, ridge version succeeds.
	a := NewDense(3, 3)
	a.AddOuter(1, []float64{1, 2, 3})
	ch, ridge, err := NewCholeskyRidge(a, 1e-12)
	if err != nil {
		t.Fatalf("ridge factorization failed: %v", err)
	}
	if ridge <= 0 {
		t.Fatalf("expected positive ridge, got %g", ridge)
	}
	if ch == nil {
		t.Fatal("nil factorization")
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 5, 10, 40} {
		a := randSym(rng, n)
		vals, vecs, err := SymEig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("n=%d: eigenvalues not ascending", n)
			}
		}
		// Orthonormal columns.
		vtv := MulTransA(nil, vecs, vecs)
		if d := maxAbsDiff(vtv, Eye(n)); d > 1e-9 {
			t.Fatalf("n=%d: VᵀV != I (%g)", n, d)
		}
		// Reconstruction.
		lam := NewDense(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, vals[i])
		}
		rec := Mul(nil, Mul(nil, vecs, lam), vecs.T())
		if d := maxAbsDiff(rec, a); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: VΛVᵀ != A (%g)", n, d)
		}
	}
}

func TestSymEigvalsMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 6, 17} {
		a := randSym(rng, n)
		v1, _, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := SymEigvals(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1 {
			if math.Abs(v1[i]-v2[i]) > 1e-9*(1+math.Abs(v1[i])) {
				t.Fatalf("n=%d: eigenvalue %d mismatch %g vs %g", n, i, v1[i], v2[i])
			}
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("diag eig mismatch: %v", vals)
		}
	}
}

func TestSPDFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randSPD(rng, 12)
	sf, err := NewSPDFuncs(a, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	isq := sf.InvSqrt()
	id := Mul(nil, Mul(nil, isq, a), isq)
	if d := maxAbsDiff(id, Eye(12)); d > 1e-8 {
		t.Fatalf("A^{-1/2} A A^{-1/2} != I (%g)", d)
	}
	inv := sf.Inv()
	id2 := Mul(nil, inv, a)
	if d := maxAbsDiff(id2, Eye(12)); d > 1e-8 {
		t.Fatalf("A⁻¹A != I (%g)", d)
	}
	if sf.Cond() < 1 {
		t.Fatalf("condition number < 1: %g", sf.Cond())
	}
}

func TestKronAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewDense(3, 2)
	b := NewDense(2, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	k := Kron(a, b)
	if k.Rows != 6 || k.Cols != 8 {
		t.Fatalf("Kron shape %dx%d", k.Rows, k.Cols)
	}
	for i := 0; i < k.Rows; i++ {
		for j := 0; j < k.Cols; j++ {
			want := a.At(i/2, j/4) * b.At(i%2, j%4)
			if math.Abs(k.At(i, j)-want) > 1e-12 {
				t.Fatalf("Kron(%d,%d) = %g want %g", i, j, k.At(i, j), want)
			}
		}
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD) — property-based via testing/quick over seeds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		m := 2 + rng.Intn(2)
		mk := func(r, c int) *Dense {
			x := NewDense(r, c)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			return x
		}
		a, c := mk(n, n), mk(n, n)
		b, d := mk(m, m), mk(m, m)
		lhs := Mul(nil, Kron(a, b), Kron(c, d))
		rhs := Kron(Mul(nil, a, c), Mul(nil, b, d))
		return maxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, c := 3, 4
	blocks := make([]*Dense, c)
	for k := range blocks {
		blocks[k] = randSym(rng, d)
	}
	m := BlockDiag(blocks)
	if m.Rows != c*d {
		t.Fatalf("BlockDiag shape %d", m.Rows)
	}
	for k := 0; k < c; k++ {
		got := Block(m, k, k, d)
		if d := maxAbsDiff(got, blocks[k]); d > 0 {
			t.Fatalf("block %d mismatch %g", k, d)
		}
	}
	// Off-diagonal blocks are zero.
	off := Block(m, 0, 1, d)
	for _, v := range off.Data {
		if v != 0 {
			t.Fatal("off-diagonal block not zero")
		}
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Nrm2(x) != 5 {
		t.Fatalf("Nrm2 = %g", Nrm2(x))
	}
	if Nrm2(nil) != 0 {
		t.Fatal("Nrm2(nil) != 0")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy result %v", y)
	}
	i, v := MaxIdx([]float64{1, 9, 3})
	if i != 1 || v != 9 {
		t.Fatal("MaxIdx wrong")
	}
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum wrong")
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Fatal("Set/At broken")
	}
	tr := m.T()
	if tr.At(1, 0) != 5 {
		t.Fatal("T broken")
	}
	cl := m.Clone()
	cl.Set(0, 1, 7)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone aliases")
	}
	fr := FromRows([][]float64{{1, 2}, {3, 4}})
	if fr.Trace() != 5 {
		t.Fatal("FromRows/Trace broken")
	}
	fr.AddDiag(1)
	if fr.Trace() != 7 {
		t.Fatal("AddDiag broken")
	}
	if FrobDot(fr, fr) <= 0 {
		t.Fatal("FrobDot broken")
	}
	if !fr.IsFinite() {
		t.Fatal("IsFinite false on finite matrix")
	}
	fr.Set(0, 0, math.NaN())
	if fr.IsFinite() {
		t.Fatal("IsFinite true on NaN")
	}
}
