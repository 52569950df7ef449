package firal

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/rnd"
	"repro/internal/softmax"
	"repro/internal/timing"
)

// testProblem builds a small synthetic problem with class structure: class
// means on the unit sphere, Gaussian spread, and probabilities from a
// logistic model evaluated at noisy true weights.
func testProblem(seed int64, nLabeled, nPool, d, c int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	means := mat.NewDense(c, d)
	for k := 0; k < c; k++ {
		for j := 0; j < d; j++ {
			means.Set(k, j, rng.NormFloat64())
		}
		mat.Scal(2/mat.Nrm2(means.Row(k)), means.Row(k))
	}
	sample := func(n int) *mat.Dense {
		x := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			k := i % c
			for j := 0; j < d; j++ {
				x.Set(i, j, means.At(k, j)+0.4*rng.NormFloat64())
			}
		}
		return x
	}
	theta := means.T() // d×c "classifier": logits = x·means ᵀ
	xo := sample(nLabeled)
	xu := sample(nPool)
	ho := hessian.ReduceProbs(softmax.Probabilities(nil, xo, theta))
	hu := hessian.ReduceProbs(softmax.Probabilities(nil, xu, theta))
	return NewProblem(hessian.NewSet(xo, ho), hessian.NewSet(xu, hu))
}

// TestLemma3BlockShermanMorrison verifies Eq. 16: the blockwise rank-1
// update formula for (A + diag(γ)⊗xxᵀ)⁻¹ agrees with the dense inverse.
func TestLemma3BlockShermanMorrison(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		c := 1 + rng.Intn(3)
		// Random SPD blocks.
		blocks := make([]*mat.Dense, c)
		for k := range blocks {
			g := mat.NewDense(d+2, d)
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64()
			}
			blocks[k] = mat.MulTransA(nil, g, g)
			blocks[k].AddDiag(0.5)
		}
		x := make([]float64, d)
		gamma := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for k := range gamma {
			gamma[k] = rng.Float64() // non-negative keeps SPD
		}
		// Dense reference.
		a := mat.BlockDiag(blocks)
		for k := 0; k < c; k++ {
			upd := mat.NewDense(d, d)
			upd.AddOuter(gamma[k], x)
			mat.SetBlock(a, k, k, d, mat.Block(a, k, k, d)) // no-op, clarity
			blk := mat.Block(a, k, k, d)
			blk.AddScaled(1, upd)
			mat.SetBlock(a, k, k, d, blk)
		}
		dense, err := mat.InvSPD(a)
		if err != nil {
			return true // skip ill-conditioned draws
		}
		// Blockwise formula (Eq. 16).
		for k := 0; k < c; k++ {
			ainvK, err := mat.InvSPD(blocks[k])
			if err != nil {
				return true
			}
			ax := matVec(nil, ainvK, x)
			denom := 1 + gamma[k]*mat.Dot(x, ax)
			got := ainvK.Clone()
			got.AddOuter(-gamma[k]/denom, ax)
			want := mat.Block(dense, k, k, d)
			if maxAbsDiff(got, want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestProposition4Equivalence is the key ROUND correctness test: when all
// Hessians are truncated to their diagonal blocks, the Eq. 17 score must
// reproduce the FTRL trace objective Trace[(B_t + ηH_i)⁻¹ Σ⋄] exactly, up
// to the candidate-independent constant Trace[B_t⁻¹ Σ⋄] (Eq. 20).
func TestProposition4Equivalence(t *testing.T) {
	p := testProblem(1, 6, 10, 3, 3)
	n := p.N()
	b := 3
	eta := 2.5
	z := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range z {
		z[i] = rng.Float64()
	}
	st, err := testRoundState(p, z, b, eta, timing.New())
	if err != nil {
		t.Fatal(err)
	}

	// Dense block-diagonal counterparts.
	sigBD := mat.BlockDiag(st.sig)
	bt := mat.BlockDiag(testInverseBlocks(st))
	btDense, err := mat.InvSPD(bt) // B_t = (B_t⁻¹)⁻¹
	if err != nil {
		t.Fatal(err)
	}
	btInvSig := mat.Mul(nil, bt, sigBD)
	constTerm := btInvSig.Trace()

	scores := make([]float64, n)
	st.Scores(p.Pool, scores)

	d, c := p.D(), p.C()
	for i := 0; i < n; i++ {
		// Dense H_i truncated to diagonal blocks.
		hi := p.ResidentPool().H.Row(i)
		xi := p.ResidentPool().X.Row(i)
		hiBD := mat.NewDense(d*c, d*c)
		for k := 0; k < c; k++ {
			blk := mat.NewDense(d, d)
			blk.AddOuter(hi[k]*(1-hi[k]), xi)
			mat.SetBlock(hiBD, k, k, d, blk)
		}
		m := btDense.Clone()
		m.AddScaled(eta, hiBD)
		mInv, err := mat.InvSPD(m)
		if err != nil {
			t.Fatal(err)
		}
		riDense := mat.Mul(nil, mInv, sigBD).Trace()
		riFormula := constTerm - eta*scores[i]
		if math.Abs(riDense-riFormula) > 1e-5*(1+math.Abs(riDense)) {
			t.Fatalf("point %d: dense %g formula %g", i, riDense, riFormula)
		}
	}
}

// TestRoundFastFTRLInvariant: after each update, A_{t+1} = ν Σ^{1/2⊤}…
// reduces to Trace(A_{t+1}⁻²) = 1, i.e. Σ_{k,j}(ν + ηλ_kj)⁻² = 1.
func TestRoundFastFTRLInvariant(t *testing.T) {
	p := testProblem(3, 6, 12, 2, 3)
	z := uniformSimplex(p.N())
	mat.Scal(4, z) // b=4
	res, err := RoundFast(p, z, 4, RoundOptions{Eta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nu) != 4 {
		t.Fatalf("expected 4 ν values, got %d", len(res.Nu))
	}
	for _, nu := range res.Nu {
		// ν may be negative (when ηH̃ already has large eigenvalues) but
		// must be finite; A_t ≻ 0 is guaranteed by the bisection bracket.
		if math.IsNaN(nu) || math.IsInf(nu, 0) {
			t.Fatalf("invalid ν %g", nu)
		}
	}
	if len(res.Selected) != 4 {
		t.Fatalf("selected %d points", len(res.Selected))
	}
	seen := map[int]bool{}
	for _, i := range res.Selected {
		if seen[i] {
			t.Fatal("duplicate selection")
		}
		seen[i] = true
	}
}

// TestSolveNuFTRLShape solves the ν_t equation Σ_j (ν + ηλ_j)⁻² = 1 of
// the ROUND step on a spectrum with a zero eigenvalue: the root has a
// near-zero residual and lies inside the bisection bracket.
func TestSolveNuFTRLShape(t *testing.T) {
	const eta = 1.7
	lam := []float64{0, 0.3, 1.1, 2.2, 5.0}
	for j := range lam {
		lam[j] *= eta
	}
	ed := float64(len(lam))
	nu, err := solveNu(lam, ed)
	if err != nil {
		t.Fatal(err)
	}
	if r := nuResidual(lam, nu); math.Abs(r) > 1e-8 {
		t.Fatalf("ν residual %g", r)
	}
	if lo, hi := 1/math.Sqrt(ed), math.Sqrt(ed); nu < lo || nu > hi {
		t.Fatalf("ν %g outside the bracket [%g, %g]", nu, lo, hi)
	}
}

// TestRoundExactWoodburyMatchesNaive checks that the production Woodbury
// objective ranks candidates identically to the literal dense objective.
func TestRoundExactWoodburyMatchesNaive(t *testing.T) {
	p := testProblem(4, 6, 8, 2, 3)
	z := uniformSimplex(p.N())
	mat.Scal(2, z)
	fast, err := RoundExact(p, z, 2, RoundOptions{Eta: 5})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := roundExact(p, z, 2, RoundOptions{Eta: 5}, roundExactNaiveObjective)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast.Selected {
		if fast.Selected[i] != naive.Selected[i] {
			t.Fatalf("selection mismatch: woodbury %v naive %v", fast.Selected, naive.Selected)
		}
	}
	for i := range fast.Objectives {
		// The two paths differ by inverse algorithm (Cholesky+Woodbury vs
		// eigen-floored dense inverse); allow small numerical slack.
		if math.Abs(fast.Objectives[i]-naive.Objectives[i]) > 5e-4*(1+math.Abs(naive.Objectives[i])) {
			t.Fatalf("objective mismatch at round %d: %g vs %g", i, fast.Objectives[i], naive.Objectives[i])
		}
	}
}

// TestRelaxFastTracksExact compares the Fig. 4 quantities: the fast RELAX
// objective trajectory should track the exact one closely on a small
// problem.
func TestRelaxFastTracksExact(t *testing.T) {
	p := testProblem(5, 8, 24, 3, 3)
	b := 4
	opts := RelaxOptions{FixedIterations: 15, Seed: 7, Probes: 30, CGTol: 0.01}
	fast, err := RelaxFast(context.Background(), p, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RelaxExact(context.Background(), p, b, RelaxOptions{FixedIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Objectives) != 15 || len(exact.Objectives) != 15 {
		t.Fatalf("objective traces %d/%d", len(fast.Objectives), len(exact.Objectives))
	}
	// Objectives decrease overall.
	if fast.Objectives[14] >= fast.Objectives[0] {
		t.Fatalf("fast objective did not decrease: %g → %g", fast.Objectives[0], fast.Objectives[14])
	}
	if exact.Objectives[14] >= exact.Objectives[0] {
		t.Fatalf("exact objective did not decrease: %g → %g", exact.Objectives[0], exact.Objectives[14])
	}
	// Trajectories agree within Hutchinson noise (s=30 ⇒ ~20%).
	for i := range fast.Objectives {
		rel := math.Abs(fast.Objectives[i]-exact.Objectives[i]) / exact.Objectives[i]
		if rel > 0.35 {
			t.Fatalf("iteration %d: fast %g exact %g (rel %g)", i, fast.Objectives[i], exact.Objectives[i], rel)
		}
	}
	// Final weights correlate: both should sum to b.
	if math.Abs(mat.Sum(fast.Z)-float64(b)) > 1e-6 {
		t.Fatalf("fast Z sums to %g", mat.Sum(fast.Z))
	}
	if math.Abs(mat.Sum(exact.Z)-float64(b)) > 1e-6 {
		t.Fatalf("exact Z sums to %g", mat.Sum(exact.Z))
	}
}

// TestNuSolvesFTRLEquation verifies the line-10 invariant directly: after
// an update, Σ_{k,j} (ν + ηλ_kj)⁻² = 1 for the eigenvalues λ of the
// accumulated (H̃)_k blocks.
func TestNuSolvesFTRLEquation(t *testing.T) {
	p := testProblem(20, 6, 10, 2, 3)
	z := uniformSimplex(p.N())
	mat.Scal(3, z)
	eta := 4.0
	st, err := testRoundState(p, z, 3, eta, timing.New())
	if err != nil {
		t.Fatal(err)
	}
	nu, err := st.Update(p.ResidentPool().X.Row(0), p.ResidentPool().H.Row(0), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range st.lamBuf { // the (H̃)_k eigenvalues of the update
		if l < 0 {
			l = 0
		}
		dd := nu + eta*l
		sum += 1 / (dd * dd)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("FTRL normalization violated: Σ(ν+ηλ)⁻² = %g", sum)
	}
}

func TestSelectApproxEndToEnd(t *testing.T) {
	p := testProblem(8, 10, 40, 3, 4)
	res, err := SelectApprox(context.Background(), p, 5, Options{Relax: RelaxOptions{MaxIter: 20, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 5 {
		t.Fatalf("selected %d", len(res.Selected))
	}
	seen := map[int]bool{}
	for _, i := range res.Selected {
		if i < 0 || i >= p.N() || seen[i] {
			t.Fatalf("bad selection %v", res.Selected)
		}
		seen[i] = true
	}
	if res.Eta != p.DefaultEta() {
		t.Fatalf("default eta not used: %g", res.Eta)
	}
}

func TestSelectExactEndToEnd(t *testing.T) {
	p := testProblem(9, 8, 16, 2, 3)
	res, err := SelectExact(context.Background(), p, 3, Options{Relax: RelaxOptions{MaxIter: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %d", len(res.Selected))
	}
}

func TestEtaGridTuning(t *testing.T) {
	p := testProblem(10, 8, 20, 2, 3)
	res, err := SelectApprox(context.Background(), p, 3, Options{
		Relax:   RelaxOptions{MaxIter: 10, Seed: 2},
		EtaGrid: []float64{1, 4, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range []float64{1, 4, 16} {
		if res.Eta == e {
			found = true
		}
	}
	if !found {
		t.Fatalf("tuned eta %g not from grid", res.Eta)
	}
	if res.Round.MinEigH <= 0 {
		t.Fatalf("MinEigH %g not positive", res.Round.MinEigH)
	}
}

// TestExactVsApproxSelectionOverlap: on a small well-separated problem the
// two algorithms should choose substantially overlapping batches.
func TestExactVsApproxSelectionOverlap(t *testing.T) {
	p := testProblem(11, 9, 30, 3, 3)
	b := 6
	ex, err := SelectExact(context.Background(), p, b, Options{Relax: RelaxOptions{MaxIter: 25}})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := SelectApprox(context.Background(), p, b, Options{Relax: RelaxOptions{MaxIter: 25, Seed: 3, Probes: 30, CGTol: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	inEx := map[int]bool{}
	for _, i := range ex.Selected {
		inEx[i] = true
	}
	overlap := 0
	for _, i := range ap.Selected {
		if inEx[i] {
			overlap++
		}
	}
	if overlap < b/3 {
		t.Fatalf("selections too different: exact %v approx %v (overlap %d)", ex.Selected, ap.Selected, overlap)
	}
}

func TestRelaxZStaysOnScaledSimplex(t *testing.T) {
	p := testProblem(12, 6, 15, 2, 3)
	res, err := RelaxFast(context.Background(), p, 5, RelaxOptions{MaxIter: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Z {
		if v < 0 {
			t.Fatalf("negative weight %g", v)
		}
		sum += v
	}
	if math.Abs(sum-5) > 1e-8 {
		t.Fatalf("Z sums to %g, want 5", sum)
	}
}

func TestBudgetLargerThanPool(t *testing.T) {
	p := testProblem(13, 5, 4, 2, 2)
	res, err := SelectApprox(context.Background(), p, 10, Options{Relax: RelaxOptions{MaxIter: 5, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 4 {
		t.Fatalf("expected all 4 pool points, got %d", len(res.Selected))
	}
}

// testInverseBlocks returns the blocks (B_t)⁻¹_k = W_k diag(a_k) W_kᵀ
// that the state's eigenbasis represents.
func testInverseBlocks(st *RoundState) []*mat.Dense {
	d := st.d
	out := make([]*mat.Dense, st.c)
	for k := range out {
		aw := st.wt[k].Clone() // diag(a_k) W_kᵀ
		for j := 0; j < d; j++ {
			mat.Scal(st.a[k*d+j], aw.Row(j))
		}
		out[k] = mat.MulTransA(nil, st.wt[k], aw)
	}
	return out
}

// testRoundState builds a fresh RoundState from a Problem — the
// non-pooled form of the RoundFast setup, for tests that exercise the
// state directly.
func testRoundState(p *Problem, z []float64, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	sig, err := p.SigmaBlocks(z)
	if err != nil {
		return nil, err
	}
	return NewRoundState(sig, p.labeledBlocks(), b, eta, ph)
}

// TestTraceFromProbes checks the Hutchinson estimate RELAX takes from its
// transposed probe block: exact for a multiple of the identity, and summed
// in the order of the column form, probe by probe.
func TestTraceFromProbes(t *testing.T) {
	rng := rnd.New(5)
	n, s := 12, 64
	a := mat.Eye(n)
	a.Scale(3)
	v := mat.NewDense(n, s)
	rng.Rademacher(v.Data)
	av := mat.Mul(nil, a, v)
	// The column form: probe j is column j of v, its image column j of av.
	var acc float64
	col1 := make([]float64, n)
	col2 := make([]float64, n)
	for j := 0; j < s; j++ {
		v.Col(col1, j)
		av.Col(col2, j)
		acc += mat.Dot(col1, col2)
	}
	want := acc / float64(s)
	if math.Abs(want-3*float64(n)) > 1e-9 {
		t.Fatalf("column-form estimate %g want %g", want, 3*float64(n))
	}
	if got := traceFromProbesT(v.T(), av.T()); got != want {
		t.Fatalf("traceFromProbesT %g, column form %g", got, want)
	}
}

// matVec returns a·x in dst (allocated when nil), one mat.Dot per row.
func matVec(dst []float64, a *mat.Dense, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	for i := range dst {
		dst[i] = mat.Dot(a.Row(i), x)
	}
	return dst
}

// maxAbsDiff returns max_ij |a_ij − b_ij| over two matrices of one shape.
func maxAbsDiff(a, b *mat.Dense) float64 {
	var m float64
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			if d := math.Abs(v - b.At(i, j)); d > m {
				m = d
			}
		}
	}
	return m
}
