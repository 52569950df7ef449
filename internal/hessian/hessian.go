// Package hessian implements the Fisher-information structure at the heart
// of FIRAL. For a point x with class-probability vector h, the Fisher
// information (Hessian of the negative log-likelihood) is
//
//	H = (diag(h) − h hᵀ) ⊗ (x xᵀ)   ∈ R^{dc×dc}          (Eq. 2)
//
// Package hessian provides:
//   - dense assembly of single Hessians and weighted sums (Exact-FIRAL),
//   - the matrix-free fast matvec of Lemma 2 with O(dc) work per point
//     (MatVecBlockWS) and the gradient's quadratic form (QuadAccumBlockWS),
//     each applied to a whole block of s vectors in one pool sweep; one
//     vector is the s=1 case,
//   - the block-diagonal extraction of Eq. 14–15 used by the CG
//     preconditioner and the diagonal ROUND step (BlockDiagSumInto).
//
// Vectors v ∈ R^{dc} use the vec(V) layout of the paper: v stacks the
// columns of V ∈ R^{d×c}, so block k (length d) corresponds to class k.
package hessian

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/softmax"
)

// Set is a resident collection of points with attached class
// probabilities — the (x_i, h_i) pairs over which Hessian sums such as
// Ho, Hp, Hz (Eq. 3) range. X is n×d and H is n×c; row i of H is h(x_i)
// under the current classifier.
//
// A Set serves Pool through its embedded Stream over
// dataset.NewMatrixSource(X), the code path of every streamed pool. Its
// blocks and rows alias X's storage, so an in-place change to X or H
// shows through them; NewSet serves a non-compact X from a compact copy.
//
// FIRAL uses the reduced (c−1)-class parametrization of Eq. 1 (θ ∈
// R^{d×(c−1)}, h ∈ R^{c−1} with class c as reference): pass probability
// rows with the last class dropped (see ReduceProbs). Under the full
// c-class parametrization every Fisher Hessian is singular along the
// softmax gauge directions 1_c ⊗ u, which breaks the CG solves; the
// algebra in this package is width-agnostic and works for either width.
type Set struct {
	X *mat.Dense
	H *mat.Dense
	*Stream
}

// ReduceProbs drops the last class column of a full softmax probability
// matrix (n×c → n×(c−1)), producing the reduced parametrization of Eq. 1
// under which diag(h)−hhᵀ is nonsingular for interior probabilities.
func ReduceProbs(h *mat.Dense) *mat.Dense {
	out := mat.NewDense(h.Rows, h.Cols-1)
	for i := 0; i < h.Rows; i++ {
		copy(out.Row(i), h.Row(i)[:h.Cols-1])
	}
	return out
}

// PoolProbs attaches classifier probabilities to every row of src: row i
// of dst becomes softmax(θᵀ x_i) for the d×c classifier theta, all c
// columns when dst has c, the reduced parametrization of Eq. 1 (last
// class dropped) when it has c−1. The rows are read and scored in
// windows of dataset.DefaultBlockRows rows from row 0; the GEMM
// summation order depends on a window's row count, so the windows fix
// the bits.
func PoolProbs(dst *mat.Dense, src dataset.PoolSource, theta *mat.Dense) error {
	c, n := theta.Cols, src.NumRows()
	if dst.Cols != c && dst.Cols != c-1 {
		return fmt.Errorf("hessian: probability matrix has %d columns, want %d or %d", dst.Cols, c, c-1)
	}
	if dst.Rows != n {
		return fmt.Errorf("hessian: probability matrix has %d rows, pool has %d", dst.Rows, n)
	}
	if n == 0 {
		return nil
	}
	block := mat.NewDense(min(dataset.DefaultBlockRows, n), src.Dim())
	probs := mat.NewDense(block.Rows, c)
	for lo := 0; lo < n; lo += block.Rows {
		hi := min(lo+block.Rows, n)
		xb := block.RowSlice(0, hi-lo)
		if err := src.ReadRows(lo, hi, xb); err != nil {
			return err
		}
		pb := softmax.Probabilities(probs.RowSlice(0, hi-lo), xb, theta)
		for i := lo; i < hi; i++ {
			copy(dst.Row(i), pb.Row(i - lo)[:dst.Cols])
		}
	}
	return nil
}

// NewSet validates shapes and builds a Set.
func NewSet(x, h *mat.Dense) *Set {
	if x.Rows != h.Rows {
		panic("hessian: X and H row mismatch")
	}
	return &Set{X: x, H: h, Stream: NewStream(dataset.NewMatrixSource(x), h, 0)}
}

// DensePoint assembles the dense dc×dc Hessian of Eq. 2 for a single
// (x, h) pair. Used by Exact-FIRAL and as the reference implementation in
// property tests.
func DensePoint(x, h []float64) *mat.Dense {
	c := len(h)
	s := mat.NewDense(c, c)
	for k := 0; k < c; k++ {
		for l := 0; l < c; l++ {
			v := float64(-h[k] * h[l])
			if k == l {
				v += h[k]
			}
			s.Set(k, l, v)
		}
	}
	xx := mat.NewDense(len(x), len(x))
	xx.AddOuter(1, x)
	return mat.Kron(s, xx)
}

// DenseSum assembles Σ_i w_i H_i densely (dc×dc). A nil w means unit
// weights. Block (k, l) equals Σ_i w_i h_ik (δ_kl − h_il) x_i x_iᵀ, which
// is a weighted Gram matrix, so the assembly runs c² parallel Gram kernels
// — this is the O(n c² d²) storage/compute bottleneck that motivates
// Approx-FIRAL.
func (s *Set) DenseSum(w []float64) *mat.Dense {
	n, d, c := s.N(), s.D(), s.C()
	out := mat.NewDense(d*c, d*c)
	u := make([]float64, n)
	for k := 0; k < c; k++ {
		for l := 0; l < c; l++ {
			for i := 0; i < n; i++ {
				wi := 1.0
				if w != nil {
					wi = w[i]
				}
				hik := s.H.At(i, k)
				hil := s.H.At(i, l)
				v := float64(-hik * hil)
				if k == l {
					v += hik
				}
				u[i] = wi * v
			}
			blk := mat.WeightedGram(nil, s.X, u)
			mat.SetBlock(out, k, l, d, blk)
		}
	}
	return out
}

// AddBlockDiagPoint adds γ_k x xᵀ to each block (γ_k = h_k(1−h_k)),
// optionally scaled — the per-point block-diagonal update of Algorithm 3,
// line 8.
//
//firal:hotpath
func AddBlockDiagPoint(blocks []*mat.Dense, x, h []float64, scale float64) {
	for k, b := range blocks {
		g := scale * h[k] * (1 - h[k])
		if g != 0 {
			b.AddOuter(g, x)
		}
	}
}
