package firal

import (
	"fmt"
	"math"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/timing"
)

// RoundOptions configure the ROUND solvers.
type RoundOptions struct {
	// Eta is the FTRL learning rate η (0 → Problem.DefaultEta()).
	Eta float64
	// Exclude lists pool indices that must not be selected — points a
	// previous round already picked, or whose labels the caller already
	// holds. They are pre-marked as selected, so the greedy argmax skips
	// them; they still contribute to the RELAX weights and the Fisher
	// state like any other pool point. Out-of-range entries are ignored.
	Exclude []int
}

// RoundResult reports a ROUND solve.
type RoundResult struct {
	// Selected holds the b chosen pool indices in selection order.
	Selected []int
	// Nu holds the FTRL normalization constants ν_t found by bisection.
	Nu []float64
	// Objectives holds the winning objective value of each round.
	Objectives []float64
	// MinEigH is min_k λ_min((H)_k) for the accumulated Hessian sum of
	// the selected points — the η-tuning criterion of § IV-A.
	MinEigH float64
	// Timings attributes wall-clock time to phases ("objective", "eig",
	// "other"; a distributed solve adds "comm").
	Timings *timing.Phases
}

// RoundExact runs the exact ROUND step of Algorithm 1 (lines 10–19):
// FTRL regret minimization over dense transformed Hessians
// H̃ = Σ⋄^{-1/2} H Σ⋄^{-1/2}. The per-candidate objective
// Trace[(A_t + (η/b)H̃o + ηH̃_i)⁻¹] is evaluated through the
// Woodbury/push-through identity on the rank-c factorization
// H̃_i = U S_i Uᵀ with U = Σ⋄^{-1/2}(I_c ⊗ x_i), costing O(c³) per
// candidate after an O((dc)³) per-round setup.
func RoundExact(p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	return roundExact(p, z, b, o, woodburyObjective)
}

// exactObjective writes the line-14 objective r_i = Trace[(K + ηH̃_i)⁻¹]
// of every pool point into ri, given K = A_t + (η/b)H̃o, its inverse
// kinv, and isqrt = Σ⋄^{-1/2}.
type exactObjective func(p *Problem, k, kinv, isqrt *mat.Dense, eta float64, ri []float64)

// roundExact is RoundExact with the per-round objective passed in, so the
// tests can run the same FTRL loop on the literal dense objective.
func roundExact(p *Problem, z []float64, b int, o RoundOptions, objective exactObjective) (*RoundResult, error) {
	pool := p.ResidentPool()
	if pool == nil {
		return nil, ErrResidentPool
	}
	if o.Eta <= 0 {
		o.Eta = p.DefaultEta()
	}
	eta := o.Eta
	n, ed := p.N(), p.Ed()
	edF := float64(ed)
	res := &RoundResult{Timings: timing.New()}
	ph := res.Timings

	// Σ⋄ = Ho + Hz⋄ and its ±1/2 powers (Eq. 8).
	stop := ph.Start("other")
	sigma := p.DenseSigma(z)
	sf, err := mat.NewSPDFuncs(sigma, 1e-12)
	if err != nil {
		return nil, err
	}
	isqrt := sf.InvSqrt()
	hoDense := p.Labeled.DenseSum(nil)
	hoTilde := mat.Mul(nil, mat.Mul(nil, isqrt, hoDense), isqrt)
	hoTilde.Symmetrize()

	// A_1 = √ẽd · I (line 12).
	a := mat.Eye(ed)
	a.Scale(math.Sqrt(edF))
	hTilde := mat.NewDense(ed, ed) // accumulated ηH̃ numerator (line 15)
	stop()

	selected := make(map[int]bool, b+len(o.Exclude))
	for _, i := range o.Exclude {
		if i >= 0 && i < n {
			selected[i] = true
		}
	}
	ri := make([]float64, n)

	for t := 1; t <= b; t++ {
		stop = ph.Start("objective")
		// K = A_t + (η/b) H̃o, shared by all candidates this round.
		k := a.Clone()
		k.AddScaled(eta/float64(b), hoTilde)
		k.Symmetrize()
		kinv, err := mat.InvSPD(k)
		if err != nil {
			return nil, err
		}
		objective(p, k, kinv, isqrt, eta, ri)
		stop()

		// Select the minimizer among unselected candidates (line 14).
		stop = ph.Start("other")
		best, bestV := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if ri[i] < bestV {
				best, bestV = i, ri[i]
			}
		}
		if best < 0 {
			break
		}
		selected[best] = true
		res.Selected = append(res.Selected, best)
		res.Objectives = append(res.Objectives, bestV)

		// Line 15: H̃ ← H̃ + (1/b)H̃o + H̃_it.
		hit := hessian.DensePoint(pool.X.Row(best), pool.H.Row(best))
		hitT := mat.Mul(nil, mat.Mul(nil, isqrt, hit), isqrt)
		hTilde.AddScaled(1/float64(b), hoTilde)
		hTilde.AddScaled(1, hitT)
		hTilde.Symmetrize()
		stop()

		// Lines 16–18: eigenvalues of ηH̃, bisection for ν_{t+1}, and
		// A_{t+1} = ν_{t+1}I + ηH̃.
		stop = ph.Start("eig")
		scaled := hTilde.Clone()
		scaled.Scale(eta)
		lam, err := mat.SymEigvals(scaled)
		if err != nil {
			return nil, err
		}
		stop()
		stop = ph.Start("other")
		nu, err := solveNu(lam, edF)
		if err != nil {
			return nil, err
		}
		res.Nu = append(res.Nu, nu)
		a.CopyFrom(scaled)
		a.AddDiag(nu)
		stop()
	}

	res.MinEigH = minEigSelectedBlocks(p, res.Selected, float64(b))
	return res, nil
}

// woodburyObjective evaluates the line-14 objective through the
// Woodbury/push-through identity, at O(c³) per candidate.
func woodburyObjective(p *Problem, k, kinv, isqrt *mat.Dense, eta float64, ri []float64) {
	pool := p.ResidentPool()
	n, d, c := p.N(), p.D(), p.C()
	xm := mat.NewDense(n, d)
	trK := kinv.Trace()
	kinv2 := mat.Mul(nil, kinv, kinv)
	// M1 = Σ^{-1/2} K⁻¹ Σ^{-1/2}, M2 = Σ^{-1/2} K⁻² Σ^{-1/2}:
	// G_i[k,l] = x_iᵀ M1^{(k,l)} x_i, P_i[k,l] = x_iᵀ M2^{(k,l)} x_i.
	m1 := mat.Mul(nil, mat.Mul(nil, isqrt, kinv), isqrt)
	m2 := mat.Mul(nil, mat.Mul(nil, isqrt, kinv2), isqrt)
	gAll := make([][]float64, c*c)
	pAll := make([][]float64, c*c)
	for kk := 0; kk < c; kk++ {
		for ll := kk; ll < c; ll++ {
			blk := mat.Block(m1, kk, ll, d)
			mat.Mul(xm, pool.X, blk)
			buf := make([]float64, n)
			mat.RowDots(buf, pool.X, xm)
			gAll[kk*c+ll] = buf
			gAll[ll*c+kk] = buf
			blk2 := mat.Block(m2, kk, ll, d)
			mat.Mul(xm, pool.X, blk2)
			buf2 := make([]float64, n)
			mat.RowDots(buf2, pool.X, xm)
			pAll[kk*c+ll] = buf2
			pAll[ll*c+kk] = buf2
		}
	}
	// Per candidate: r_i = Tr K⁻¹ − η·Tr[(I + ηS_iG_i)⁻¹ S_i P_i].
	gi := mat.NewDense(c, c)
	pi := mat.NewDense(c, c)
	si := mat.NewDense(c, c)
	for i := 0; i < n; i++ {
		hi := pool.H.Row(i)
		for kk := 0; kk < c; kk++ {
			for ll := 0; ll < c; ll++ {
				gi.Set(kk, ll, gAll[kk*c+ll][i])
				pi.Set(kk, ll, pAll[kk*c+ll][i])
				v := -hi[kk] * hi[ll]
				if kk == ll {
					v += hi[kk]
				}
				si.Set(kk, ll, v)
			}
		}
		sg := mat.Mul(nil, si, gi)
		sg.Scale(eta)
		sg.AddDiag(1) // E = I + ηS G
		sp := mat.Mul(nil, si, pi)
		lu, err := mat.NewLU(sg)
		if err != nil {
			ri[i] = math.Inf(1)
			continue
		}
		sol := lu.Solve(nil, sp)
		ri[i] = trK - eta*sol.Trace()
	}
}

// solveNu finds ν with Σ_j (ν + λ_j)⁻² = 1 by bisection on the provable
// bracket ν ∈ [−λ_min + ẽd^{-1/2}, −λ_min + ẽd^{1/2}] (DESIGN.md § 5).
// A NaN or infinite λ_j is ErrNonFinite: a NaN has no bracket, and an
// infinite λ_j drops out of the sum and would leave a finite ν that only
// looks plausible. The bisection is written out over lam rather than
// taking a closure: solveNu runs once per ROUND candidate inside the
// 0-allocs/op steady-state loop, and a closure over lam would
// heap-allocate there.
func solveNu(lam []float64, edF float64) (float64, error) {
	lmin := lam[0]
	for j, l := range lam {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return 0, fmt.Errorf("%w: ν solve eigenvalue %d is %g", ErrNonFinite, j, l)
		}
		if l < lmin {
			lmin = l
		}
	}
	lo := -lmin + 1/math.Sqrt(edF)
	hi := -lmin + math.Sqrt(edF)
	tol := 1e-12 * (1 + math.Abs(hi))
	flo, fhi := nuResidual(lam, lo), nuResidual(lam, hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, opt.ErrNoBracket
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := 0.5 * (lo + hi)
		fm := nuResidual(lam, mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// nuResidual evaluates Σ_j (ν + λ_j)⁻² − 1, the FTRL normalization
// residual of Algorithm 3 line 10.
func nuResidual(lam []float64, nu float64) float64 {
	var s float64
	for _, l := range lam {
		d := nu + l
		s += 1 / (d * d)
	}
	return s - 1
}

// minEigSelectedBlocks computes min_k λ_min((H)_k) where H = Ho + Σ_t H_it
// restricted to its diagonal blocks — the η-selection criterion (§ IV-A).
func minEigSelectedBlocks(p *Problem, selected []int, b float64) float64 {
	if len(selected) == 0 {
		return 0
	}
	pool := p.ResidentPool()
	blocks := hessian.BlockDiagSumInto(nil, p.Labeled, nil, nil)
	for _, i := range selected {
		hessian.AddBlockDiagPoint(blocks, pool.X.Row(i), pool.H.Row(i), 1)
	}
	minEig := math.Inf(1)
	for _, blk := range blocks {
		vals, err := mat.SymEigvals(blk)
		if err != nil || len(vals) == 0 {
			return math.Inf(-1)
		}
		if vals[0] < minEig {
			minEig = vals[0]
		}
	}
	return minEig
}
