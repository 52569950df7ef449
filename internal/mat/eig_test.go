package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigFixtures returns symmetric test matrices of order n: random, rank
// deficient (every third row and column zero, so zero is a repeated
// eigenvalue), and an identity with one entry raised (n−1 tied
// eigenvalues).
func eigFixtures(rng *rand.Rand, n int) []*Dense {
	def := randSym(rng, n)
	for i := 0; i < n; i += 3 {
		for j := 0; j < n; j++ {
			def.Set(i, j, 0)
			def.Set(j, i, 0)
		}
	}
	tied := Eye(n)
	tied.Set(0, 0, 2)
	return []*Dense{randSym(rng, n), def, tied}
}

// sameBitsVec reports whether two vectors are bit-identical.
func sameBitsVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSymEigIntoMatchesSymEig pins the Workspace eigensolver to SymEig
// bit for bit, with fresh, reused, aliased (vecs == a) and too-small
// outputs.
func TestSymEigIntoMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	for _, n := range []int{1, 2, 5, 13, 64} {
		vals, vecs := make([]float64, n), NewDense(n, n)
		for fi, a := range eigFixtures(rng, n) {
			wantV, wantZ, err := SymEig(a)
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotZ, err := SymEigInto(ws, vals, vecs, a)
			if err != nil {
				t.Fatal(err)
			}
			if &gotV[0] != &vals[0] || gotZ != vecs {
				t.Fatalf("n=%d fixture %d: SymEigInto did not reuse its outputs", n, fi)
			}
			if !sameBitsVec(gotV, wantV) || !sameBitsVec(gotZ.Data, wantZ.Data) {
				t.Fatalf("n=%d fixture %d: SymEigInto differs from SymEig", n, fi)
			}
			in := a.Clone()
			aliV, aliZ, err := SymEigInto(ws, nil, in, in)
			if err != nil {
				t.Fatal(err)
			}
			if aliZ != in || !sameBitsVec(aliV, wantV) || !sameBitsVec(aliZ.Data, wantZ.Data) {
				t.Fatalf("n=%d fixture %d: aliased SymEigInto differs from SymEig", n, fi)
			}
			wrong := NewDense(n+1, n)
			newV, newZ, err := SymEigInto(ws, make([]float64, 0, n-1), wrong, a)
			if err != nil {
				t.Fatal(err)
			}
			if newZ == wrong || !sameBitsVec(newV, wantV) || !sameBitsVec(newZ.Data, wantZ.Data) {
				t.Fatalf("n=%d fixture %d: SymEigInto with short outputs differs from SymEig", n, fi)
			}
		}
	}
}

// TestSortEigMatchesIndexSort pins the in-place eigenpair sort to the
// index-permutation sort it replaced — sort.Slice over an index vector by
// value, applied afterwards — including the order it leaves tied values
// in, which decides the eigenvector order of repeated eigenvalues.
func TestSortEigMatchesIndexSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 7, 12, 13, 40, 64} {
		for rep := 0; rep < 5; rep++ {
			d := make([]float64, n)
			for i := range d {
				d[i] = float64(rng.Intn(4)) // heavy ties
			}
			zt := NewDense(n, n)
			for i := range zt.Data {
				zt.Data[i] = rng.NormFloat64()
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
			wantD := make([]float64, n)
			wantZ := NewDense(n, n)
			for newPos, oldPos := range idx {
				wantD[newPos] = d[oldPos]
				copy(wantZ.Row(newPos), zt.Row(oldPos))
			}
			sortEig(d, zt)
			if !sameBitsVec(d, wantD) || !sameBitsVec(zt.Data, wantZ.Data) {
				t.Fatalf("n=%d rep %d: in-place sort permutes differently from the index sort", n, rep)
			}
		}
	}
}

// TestInvSqrtIntoMatchesSPDFuncs pins InvSqrtInto to SPDFuncs.InvSqrt bit
// for bit, eigenvalue floor included (the rank-deficient fixture).
func TestInvSqrtIntoMatchesSPDFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := NewWorkspace()
	for _, n := range []int{3, 16, 64} {
		spd := randSym(rng, n)
		spd = MulTransB(nil, spd, spd)
		def := spd.Clone()
		for j := 0; j < n; j++ {
			def.Set(n-1, j, 0)
			def.Set(j, n-1, 0)
		}
		for fi, a := range []*Dense{spd, def} {
			sf, err := NewSPDFuncs(a, 1e-10)
			if err != nil {
				t.Fatal(err)
			}
			want := sf.InvSqrt()
			got := NewDense(n, n)
			if err := InvSqrtInto(ws, got, a, 1e-10); err != nil {
				t.Fatal(err)
			}
			if !sameBitsVec(got.Data, want.Data) {
				t.Fatalf("n=%d fixture %d: InvSqrtInto differs from SPDFuncs.InvSqrt", n, fi)
			}
		}
	}
}

// TestSymEigIntoZeroAlloc pins the ROUND eigenbasis rebuild: with a warm
// workspace and caller-owned outputs, the full eigendecomposition and the
// inverse square root allocate nothing.
func TestSymEigIntoZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := 64
	a := randSym(rand.New(rand.NewSource(8)), n)
	spd := MulTransB(nil, a, a)
	ws := NewWorkspace()
	vals, vecs, dst := make([]float64, n), NewDense(n, n), NewDense(n, n)
	run := func() {
		if _, _, err := SymEigInto(ws, vals, vecs, a); err != nil {
			t.Fatal(err)
		}
		if err := InvSqrtInto(ws, dst, spd, 1e-10); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm SymEigInto+InvSqrtInto allocate %.1f objects per call", allocs)
	}
}
