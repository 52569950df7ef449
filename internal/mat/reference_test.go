package mat

import "math"

// Test-only helpers: the reference kernels the blocked and packed ones
// are checked against, and the conveniences only tests use.

// RefMulTransA computes dst = aᵀ*b with the unblocked kernel (serial).
// Note the column-strided a.At(k, i) access — this is the cache behaviour
// the packed kernel exists to avoid.
func RefMulTransA(dst, a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("mat: MulTransA row mismatch")
	}
	dst = prepDst(dst, a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		dr := dst.Row(i)
		for j := range dr {
			dr[j] = 0
		}
		for k := 0; k < a.Rows; k++ {
			av := a.At(k, i)
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
	return dst
}

// RefMulTransB computes dst = a*bᵀ with the unblocked kernel (serial).
func RefMulTransB(dst, a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("mat: MulTransB column mismatch")
	}
	dst = prepDst(dst, a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			dr[j] = Dot(ar, b.Row(j))
		}
	}
	return dst
}

// RefMatVec computes dst = a*x with per-row serial dot products.
func RefMatVec(dst []float64, a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: MatVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	} else if len(dst) != a.Rows {
		panic("mat: MatVec dst length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
	return dst
}

// maxAbsDiff returns max_ij |a_ij - b_ij|.
func maxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: maxAbsDiff shape mismatch")
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// RefWeightedGram computes dst = Xᵀ diag(w) X with serial rank-1 updates.
func RefWeightedGram(dst *Dense, x *Dense, w []float64) *Dense {
	d := x.Cols
	dst = prepDst(dst, d, d)
	for i := 0; i < x.Rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi == 0 {
			continue
		}
		xi := x.Row(i)
		for r := 0; r < d; r++ {
			v := wi * xi[r]
			if v == 0 {
				continue
			}
			row := dst.Row(r)
			for c := 0; c < d; c++ {
				row[c] += v * xi[c]
			}
		}
	}
	return dst
}

// NewCholesky factors the symmetric positive definite matrix a. Only the
// lower triangle of a is read; a is not modified. It returns ErrNotSPD
// when a pivot is not positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	var c Cholesky
	if err := c.factor(a, 0); err != nil {
		return nil, err
	}
	return &c, nil
}

// Det returns the determinant.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Inv returns A^{-1} with eigenvalue flooring.
func (s *SPDFuncs) Inv() *Dense {
	return s.apply(nil, nil, func(l float64) float64 { return 1 / s.clamped(l) })
}

// IsFinite reports whether all entries are finite.
func (m *Dense) IsFinite() bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
