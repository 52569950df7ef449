package firal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hessian"
	"repro/internal/mat"
)

// roundExactNaiveObjective evaluates r_i = Trace[(K + ηH̃_i)⁻¹] by a dense
// inverse per candidate — the literal line 14 of Algorithm 1, kept as the
// oracle of the Woodbury objective RoundExact uses.
func roundExactNaiveObjective(p *Problem, k, _, isqrt *mat.Dense, eta float64, ri []float64) {
	pool := p.ResidentPool()
	for i := 0; i < p.N(); i++ {
		hit := hessian.DensePoint(pool.X.Row(i), pool.H.Row(i))
		hitT := mat.Mul(nil, mat.Mul(nil, isqrt, hit), isqrt)
		m := k.Clone()
		m.AddScaled(eta, hitT)
		m.Symmetrize()
		inv, err := mat.InvSPD(m)
		if err != nil {
			ri[i] = math.Inf(1)
			continue
		}
		ri[i] = inv.Trace()
	}
}

// benchmarkRoundExact times the exact ROUND step on the Woodbury
// objective or on its naive oracle: the ablation of DESIGN.md § 5.
func benchmarkRoundExact(b *testing.B, objective exactObjective) {
	p := testProblem(21, 10, 60, 8, 5)
	z := make([]float64, p.N())
	mat.Fill(z, 2/float64(p.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roundExact(p, z, 2, RoundOptions{}, objective); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_RoundExactWoodbury(b *testing.B) {
	benchmarkRoundExact(b, woodburyObjective)
}

func BenchmarkAblation_RoundExactNaive(b *testing.B) {
	benchmarkRoundExact(b, roundExactNaiveObjective)
}

// choleskyRound is the Cholesky form of Algorithm 3 lines 9–11 that the
// eigenbasis RoundState replaced, kept as its oracle: (B_t)⁻¹_k from a
// ridge-guarded Cholesky per class, and Eq. 17 from two products per
// class, x·P_k with P_k = B⁻¹_k (Σ⋄)_k B⁻¹_k and x·B⁻¹_k. The ν solve is
// the production one, on the same (H̃)_k eigenvalues.
type choleskyRound struct {
	eta   float64
	b     int
	edF   float64
	sig   []*mat.Dense // (Σ⋄)_k
	ho    []*mat.Dense // (Ho)_k
	isqrt []*mat.Dense // (Σ⋄)_k^{-1/2}
	binv  []*mat.Dense // (B_t)⁻¹_k
	hacc  []*mat.Dense // (H)_k
}

func newCholeskyRound(sig, ho []*mat.Dense, b int, eta float64) (*choleskyRound, error) {
	c, d := len(sig), sig[0].Rows
	o := &choleskyRound{eta: eta, b: b, edF: float64(c * d), sig: sig, ho: ho}
	for k := 0; k < c; k++ {
		sf, err := mat.NewSPDFuncs(sig[k], 1e-10)
		if err != nil {
			return nil, err
		}
		o.isqrt = append(o.isqrt, sf.InvSqrt())
		b1 := sig[k].Clone()
		b1.Scale(math.Sqrt(o.edF))
		b1.AddScaled(eta/float64(b), ho[k])
		binv, err := choleskyInverse(b1)
		if err != nil {
			return nil, err
		}
		o.binv = append(o.binv, binv)
		o.hacc = append(o.hacc, mat.NewDense(d, d))
	}
	return o, nil
}

func choleskyInverse(a *mat.Dense) (*mat.Dense, error) {
	var ch mat.Cholesky
	if _, err := ch.FactorRidge(a, choleskyRidge); err != nil {
		return nil, err
	}
	return ch.Inverse(), nil
}

// scores is Eq. 17 over the resident pool points x with probabilities h.
func (o *choleskyRound) scores(x, h *mat.Dense, dst []float64) {
	mat.Fill(dst, 0)
	qp, qb := make([]float64, x.Rows), make([]float64, x.Rows)
	for k := range o.binv {
		pk := mat.Mul(nil, mat.Mul(nil, o.binv[k], o.sig[k]), o.binv[k])
		mat.RowDots(qp, x, mat.Mul(nil, x, pk))
		mat.RowDots(qb, x, mat.Mul(nil, x, o.binv[k]))
		for i := range dst {
			hv := h.At(i, k)
			gamma := hv * (1 - hv)
			if gamma == 0 {
				continue
			}
			dst[i] += gamma * qp[i] / (1 + o.eta*gamma*qb[i])
		}
	}
}

// update accumulates the chosen point (line 8), solves for ν_{t+1} from
// the (H̃)_k eigenvalues (lines 9–10) and rebuilds every (B_{t+1})⁻¹_k by
// Cholesky (line 11).
func (o *choleskyRound) update(x, h []float64) (float64, error) {
	var lam []float64
	for k := range o.hacc {
		o.hacc[k].AddScaled(1/float64(o.b), o.ho[k])
		if gamma := h[k] * (1 - h[k]); gamma != 0 {
			o.hacc[k].AddOuter(gamma, x)
		}
		ht := mat.Mul(nil, mat.Mul(nil, o.isqrt[k], o.hacc[k]), o.isqrt[k])
		ht.Symmetrize()
		vals, err := mat.SymEigvals(ht)
		if err != nil {
			return 0, err
		}
		lam = append(lam, vals...)
	}
	for i, l := range lam {
		lam[i] = o.eta * max(l, 0)
	}
	nu, err := solveNu(lam, o.edF)
	if err != nil {
		return 0, err
	}
	for k := range o.binv {
		bt := o.sig[k].Clone()
		bt.Scale(nu)
		bt.AddScaled(o.eta, o.hacc[k])
		bt.AddScaled(o.eta/float64(o.b), o.ho[k])
		if o.binv[k], err = choleskyInverse(bt); err != nil {
			return 0, err
		}
	}
	return nu, nil
}

// TestRoundEigenbasisMatchesCholeskyOracle runs the eigenbasis RoundState
// and the Cholesky oracle side by side through every greedy step of a
// round: at each step the scores agree to 1e-10 relative, point by point,
// the argmax over unselected points is the same, and ν is equal. The
// singular fixture zeroes features 12–15 of every pool and labeled row,
// so (Σ⋄)_k and (Ho)_k have rank 12: the oracle's Cholesky takes its
// ridge and (Σ⋄)_k^{-1/2} its 1e-10·λmax eigenvalue floor.
func TestRoundEigenbasisMatchesCholeskyOracle(t *testing.T) {
	cases := []struct {
		name        string
		n, d, c, b  int
		zeroFeature int // features [zeroFeature, d) are zero in every row; d: none
	}{
		{"n1e4_d64_c10_b8", 10000, 64, 10, 8, 64},
		{"n2000_d16_c3_b6", 2000, 16, 3, 6, 16},
		{"singular_n2000_d16_c3_b6", 2000, 16, 3, 6, 12},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if mat.RaceEnabled && tc.n > 2000 {
				t.Skip("the large fixture is too slow under -race")
			}
			p := testProblem(int64(40+ci), 50, tc.n, tc.d, tc.c+1) // c Fisher blocks
			x, h := p.ResidentPool().X, p.ResidentPool().H
			for _, m := range []*mat.Dense{x, p.Labeled.X} {
				for i := 0; i < m.Rows; i++ {
					clear(m.Row(i)[tc.zeroFeature:])
				}
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			z := make([]float64, tc.n)
			for i := range z {
				z[i] = rng.Float64()
			}
			mat.Scal(float64(tc.b)/mat.Sum(z), z)
			eta := p.DefaultEta()
			sig, err := p.SigmaBlocks(z)
			if err != nil {
				t.Fatal(err)
			}
			ho := p.labeledBlocks()

			st, err := NewRoundState(sig, ho, tc.b, eta, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := newCholeskyRound(sig, ho, tc.b, eta)
			if err != nil {
				t.Fatal(err)
			}
			got, want := make([]float64, tc.n), make([]float64, tc.n)
			selected := make([]bool, tc.n)
			for step := 1; step <= tc.b; step++ {
				st.Scores(p.Pool, got)
				oracle.scores(x, h, want)
				var worst float64
				for i := range got {
					rel := math.Abs(got[i] - want[i])
					if want[i] != 0 {
						rel /= math.Abs(want[i])
					}
					worst = max(worst, rel)
				}
				if !(worst <= 1e-10) {
					t.Fatalf("step %d: scores differ from the Cholesky oracle by %.3g relative", step, worst)
				}
				best, bestO := argmaxFree(got, selected), argmaxFree(want, selected)
				if best != bestO {
					t.Fatalf("step %d: argmax %d, Cholesky oracle %d", step, best, bestO)
				}
				t.Logf("step %d: max relative score difference %.2g, argmax %d", step, worst, best)
				selected[best] = true
				nu, err := st.Update(x.Row(best), h.Row(best), nil)
				if err != nil {
					t.Fatal(err)
				}
				nuO, err := oracle.update(x.Row(best), h.Row(best))
				if err != nil {
					t.Fatal(err)
				}
				if nu != nuO {
					t.Fatalf("step %d: ν = %v, Cholesky oracle %v", step, nu, nuO)
				}
			}
		})
	}
}

// argmaxFree returns the index of the largest score among unselected
// points, the first on ties.
func argmaxFree(scores []float64, selected []bool) int {
	best, bestV := -1, math.Inf(-1)
	for i, v := range scores {
		if !selected[i] && v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
