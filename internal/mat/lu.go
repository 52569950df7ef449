package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when LU factorization meets a zero pivot.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P A = L U.
// It serves the small non-symmetric c×c solves of the exact ROUND step's
// Woodbury identity, where (I + ηS G) is not symmetric.
type LU struct {
	lu   *Dense
	piv  []int
	sign float64
}

// NewLU factors a (copied, not modified) with partial pivoting.
func NewLU(a *Dense) (*LU, error) {
	n := a.Rows
	if a.Cols != n {
		panic("mat: LU of non-square matrix")
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// SolveVec solves A x = b; dst may be nil or alias b.
func (f *LU) SolveVec(dst, b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("mat: LU SolveVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	// Apply permutation.
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 0; i < n; i++ {
		s := tmp[i]
		row := f.lu.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		row := f.lu.Row(i)
		for k := i + 1; k < n; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s / row[i]
	}
	copy(dst, tmp)
	return dst
}

// Solve solves A X = B into dst (nil allocates).
func (f *LU) Solve(dst, b *Dense) *Dense {
	if dst == nil {
		dst = NewDense(b.Rows, b.Cols)
	}
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		b.Col(col, j)
		f.SolveVec(col, col)
		dst.SetCol(j, col)
	}
	return dst
}
