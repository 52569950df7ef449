package firal

import (
	"context"
	"math"

	"repro/internal/mat"
	"repro/internal/timing"
)

// RelaxExact runs the exact RELAX step of Algorithm 1 (lines 1–9): at
// every mirror-descent iteration it assembles the dense ẽd×ẽd matrix Σz,
// inverts it directly, and evaluates the exact gradient
// g_i = −Trace(H_i Σz⁻¹ Hp Σz⁻¹). Storage is O(c²d² + n c² d)-class and
// per-iteration work is O(n c² d² + (dc)³) — the cost profile that
// motivates Approx-FIRAL (Table II). The context is checked once per
// mirror-descent iteration.
func RelaxExact(ctx context.Context, p *Problem, b int, o RelaxOptions) (*RelaxResult, error) {
	pool := p.ResidentPool()
	if pool == nil {
		return nil, ErrResidentPool
	}
	o.defaults()
	n, d, c := p.N(), p.D(), p.C()
	z := uniformSimplex(n)
	res := &RelaxResult{Timings: timing.New()}
	ph := res.Timings

	// Hp is constant across iterations.
	stop := ph.Start("dense")
	hp := pool.DenseSum(nil)
	stop()

	g := make([]float64, n)
	q := make([]float64, n)
	xm := mat.NewDense(n, d)
	prevF := math.Inf(1)

	for t := 1; t <= o.MaxIter; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Σz ← Ho + Hz and its inverse (Algorithm 1 line 5).
		stop = ph.Start("dense")
		sigma := p.DenseSigma(z)
		sigInv, err := mat.InvSPD(sigma)
		if err != nil {
			return nil, err
		}
		// M = Σz⁻¹ Hp Σz⁻¹; f = Trace(Σz⁻¹ Hp).
		tmp := mat.Mul(nil, sigInv, hp)
		f := tmp.Trace()
		m := mat.Mul(nil, tmp, sigInv)
		stop()

		// Exact gradient (line 6): g_i = −Trace(H_i M) with
		// H_i = S_i ⊗ x_i x_iᵀ, so Trace(H_i M) = Σ_{k,l} S_i[k,l] ·
		// x_iᵀ M^{(k,l)} x_i (M is symmetric). The quadratic forms are
		// batched over the pool with two GEMMs per (k, l) block.
		stop = ph.Start("gradient")
		mat.Fill(g, 0)
		for k := 0; k < c; k++ {
			for l := k; l < c; l++ {
				blk := mat.Block(m, k, l, d)
				mat.Mul(xm, pool.X, blk)
				mat.RowDots(q, pool.X, xm)
				mult := 1.0
				if l != k {
					mult = 2 // symmetric pair (k,l) and (l,k)
				}
				for i := 0; i < n; i++ {
					hik := pool.H.At(i, k)
					hil := pool.H.At(i, l)
					s := -hik * hil
					if k == l {
						s += hik
					}
					g[i] -= mult * s * q[i]
				}
			}
		}
		stop()

		// Mirror-descent update (lines 7–8).
		stop = ph.Start("other")
		mirrorStep(solo{}, z, g, t)
		stop()

		res.Iterations = t
		res.Objectives = append(res.Objectives, f)
		if o.FixedIterations == 0 && relConv(prevF, f, objTol) {
			break
		}
		prevF = f
	}

	res.Z = z
	mat.Scal(float64(b), res.Z)
	return res, nil
}
