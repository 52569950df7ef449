package firal

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// unfusedScores is the unfused ROUND score pass: one y = x·W_k product
// per 64-row tile and class, from the W_kᵀ stack packed as the right
// operand, then the two weighted row norms read back from y, each term
// one fused multiply-add as in mat.WeightedSqNorms. It is the oracle the
// fused pass must match bit for bit.
func unfusedScores(st *RoundState, x, h *mat.Dense) []float64 {
	d := st.d
	wts := mat.NewDense(st.c*d, d)
	for k, w := range st.wt {
		copy(wts.Data[k*d*d:(k+1)*d*d], w.Data)
	}
	var wp, xp mat.Packed
	wp.PackRight(wts)
	out := make([]float64, x.Rows)
	y := make([]float64, scoreTile*d)
	for r0 := 0; r0 < x.Rows; r0 += scoreTile {
		r1 := min(r0+scoreTile, x.Rows)
		xt := mat.Dense{Rows: r1 - r0, Cols: d, Stride: x.Stride, Data: x.Data[r0*x.Stride:]}
		yt := mat.Dense{Rows: r1 - r0, Cols: d, Stride: d, Data: y}
		xp.PackLeft(&xt)
		for k := 0; k < st.c; k++ {
			mat.MulPacked(&yt, &xp, &wp, k*d)
			a, a2 := st.a[k*d:(k+1)*d], st.a2[k*d:(k+1)*d]
			for i := r0; i < r1; i++ {
				hv := h.At(i, k)
				gamma := hv * (1 - hv)
				if gamma == 0 {
					continue
				}
				var qb, qp float64
				for j, v := range y[(i-r0)*d : (i-r0+1)*d] {
					v2 := v * v
					qb = math.FMA(v2, a[j], qb)
					qp = math.FMA(v2, a2[j], qp)
				}
				out[i] += gamma * qp / (1 + st.eta*gamma*qb)
			}
		}
	}
	return out
}

// TestScoresMatchUnfused pins Scores, on the fused kernel at the host's
// kernel level and at one to three workers, to the unfused oracle bit for
// bit — before and after an Update, over dimensions that leave ragged
// lane panels (d = 7, 13, 30), the d = 32 and 64 tiles, and pools whose
// last tile is ragged.
func TestScoresMatchUnfused(t *testing.T) {
	for _, sh := range [][3]int{{200, 7, 3}, {300, 13, 4}, {257, 30, 5}, {600, 32, 8}, {330, 64, 10}} {
		n, d, c := sh[0], sh[1], sh[2]
		p := testProblem(int64(n+d), 20, n, d, c)
		pool := p.ResidentPool()
		z := make([]float64, n)
		mat.Fill(z, 4/float64(n))
		for _, w := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("n=%d,d=%d,c=%d,w=%d", n, d, c, w), func(t *testing.T) {
				defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(w))
				st, err := testRoundState(p, z, 4, p.DefaultEta(), nil)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float64, n)
				for step := 0; step < 2; step++ {
					st.Scores(p.Pool, got)
					want := unfusedScores(st, pool.X, pool.H)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("step %d: score %d = %x, unfused %x", step, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
					if _, err := st.Update(pool.X.Row(step), pool.H.Row(step), nil); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestRoundFastBitsPinned pins a RoundFast round — which skips the
// eigenbases after its last greedy step and runs the per-class solves on
// the worker pool — to the bits the serial round that rebuilt every
// eigenbasis gave: the selections, every ν, every objective and MinEigH,
// at one to three workers. It also drives the same round through the
// public Update, which still rebuilds the last eigenbasis, and requires
// the same values.
func TestRoundFastBitsPinned(t *testing.T) {
	wantSel := []int{350, 158, 134, 500, 194}
	wantNu := []uint64{0x4025206afa62a558, 0x4022a6b831e77916, 0x40212700d8336e48, 0x401fd033d07064d8, 0x401d7d28a48bb4d7}
	// One pin serves every worker count: no kernel splits the summation
	// of one element, the Σ⋄ blocks' included.
	wantObj := []uint64{0x3f6e61fde8a0a662, 0x3f756667262d2ff0, 0x3f7826c12a6b7450, 0x3f7a6eeda1e8a0ef, 0x3f7c1b5cf59c947c}
	const wantMin = 0xbcb01ed6b43e8517
	p := testProblem(632, 20, 600, 32, 8)
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	check := func(t *testing.T, what string, sel []int, nu, obj []float64, minEig float64) {
		t.Helper()
		if fmt.Sprint(sel) != fmt.Sprint(wantSel) {
			t.Fatalf("%s: selected %v, want %v", what, sel, wantSel)
		}
		for i := range wantNu {
			if math.Float64bits(nu[i]) != wantNu[i] || math.Float64bits(obj[i]) != wantObj[i] {
				t.Fatalf("%s: step %d ν %x objective %x, want %x %x", what, i, math.Float64bits(nu[i]), math.Float64bits(obj[i]), wantNu[i], wantObj[i])
			}
		}
		if math.Float64bits(minEig) != wantMin {
			t.Fatalf("%s: MinEigH %x, want %x", what, math.Float64bits(minEig), uint64(wantMin))
		}
	}
	for _, w := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(w))
			res, err := RoundFast(p, z, 5, RoundOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "RoundFast", res.Selected, res.Nu, res.Objectives, res.MinEigH)

			st, err := testRoundState(p, z, 5, p.DefaultEta(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pool := p.ResidentPool()
			scores := make([]float64, p.N())
			selected := make([]bool, p.N())
			var sel []int
			var nus, objs []float64
			for step := 0; step < 5; step++ {
				st.Scores(p.Pool, scores)
				best, bestV := -1, math.Inf(-1)
				for i, v := range scores {
					if !selected[i] && v > bestV {
						best, bestV = i, v
					}
				}
				selected[best] = true
				nu, err := st.Update(pool.X.Row(best), pool.H.Row(best), nil)
				if err != nil {
					t.Fatal(err)
				}
				sel, nus, objs = append(sel, best), append(nus, nu), append(objs, bestV)
			}
			check(t, "Update", sel, nus, objs, st.MinEig())
		})
	}
}
