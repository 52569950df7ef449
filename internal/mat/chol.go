package mat

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot.
var ErrNotSPD = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L Lᵀ.
//
// The zero value is ready for use with FactorRidge, which reuses the
// factor storage across refactorizations — the in-place path behind the
// RELAX preconditioner, which refactors the same-sized blocks every
// iteration and must not allocate per call.
type Cholesky struct {
	L *Dense
}

// FactorRidge factors a + r·I into c, starting from r = 0 and retrying
// with geometrically increasing diagonal ridge terms when a is
// numerically semidefinite, exactly as NewCholeskyRidge but without
// cloning a per retry: the ridge is added to the pivots on the fly. It
// returns the ridge that was finally applied.
func (c *Cholesky) FactorRidge(a *Dense, ridge0 float64) (float64, error) {
	if err := c.factor(a, 0); err == nil {
		return 0, nil
	}
	// Scale the ridge to the matrix magnitude so behaviour is unit-free.
	scale := 0.0
	for i := 0; i < a.Rows; i++ {
		if v := math.Abs(a.At(i, i)); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	ridge := ridge0 * scale
	for iter := 0; iter < 40; iter++ {
		if err := c.factor(a, ridge); err == nil {
			return ridge, nil
		}
		ridge *= 10
	}
	return ridge, ErrNotSPD
}

// factor runs the left-looking factorization of a + ridge·I, reading
// only the lower triangle of a and writing c.L, whose storage it reuses
// when it has the right shape (c.L never aliases a's storage in
// supported use; factoring a matrix into itself is not supported). On
// error the factor contents are unspecified but the storage remains
// reusable.
//
//firal:hotpath
func (c *Cholesky) factor(a *Dense, ridge float64) error {
	n := a.Rows
	if a.Cols != n {
		panic("mat: Cholesky of non-square matrix")
	}
	if c.L == nil || c.L.Rows != n || c.L.Cols != n {
		c.L = NewDense(n, n)
	}
	l := c.L
	for j := 0; j < n; j++ {
		d := a.At(j, j) + ridge
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= float64(lj[k] * lj[k])
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		lj[j] = d
		// Keep the strict upper triangle zeroed so a reused factor is
		// identical to a freshly allocated one.
		for k := j + 1; k < n; k++ {
			lj[k] = 0
		}
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= float64(li[k] * lj[k])
			}
			li[j] = s * inv
		}
	}
	return nil
}

// NewCholeskyRidge factors a, retrying with geometrically increasing
// diagonal ridge terms when a is numerically semidefinite. It returns the
// factorization and the ridge that was finally applied. This backs the
// preconditioner and block-inverse construction, which must survive
// rank-deficient Σ blocks (e.g. a class with no weight yet).
func NewCholeskyRidge(a *Dense, ridge0 float64) (*Cholesky, float64, error) {
	var c Cholesky
	ridge, err := c.FactorRidge(a, ridge0)
	if err != nil {
		return nil, ridge, err
	}
	return &c, ridge, nil
}

// SolveVec solves A x = b in place of dst (dst may be b itself).
//
//firal:hotpath
func (c *Cholesky) SolveVec(dst, b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic("mat: Cholesky SolveVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Forward solve L y = b.
	for i := 0; i < n; i++ {
		li := c.L.Row(i)
		s := dst[i]
		for k := 0; k < i; k++ {
			s -= float64(li[k] * dst[k])
		}
		dst[i] = s / li[i]
	}
	// Backward solve Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= float64(c.L.At(k, i) * dst[k])
		}
		dst[i] = s / c.L.At(i, i)
	}
	return dst
}

// SolveInto solves A X = B column-by-column with the column buffer drawn
// from ws, so repeated solves against a warm workspace are
// allocation-free; dst may be nil or B itself.
//
//firal:hotpath
func (c *Cholesky) SolveInto(ws *Workspace, dst, b *Dense) *Dense {
	if dst == nil {
		dst = b.Clone()
	} else if dst != b {
		dst.CopyFrom(b)
	}
	col := ws.Vec(dst.Rows)
	for j := 0; j < dst.Cols; j++ {
		dst.Col(col, j)
		c.SolveVec(col, col)
		dst.SetCol(j, col)
	}
	ws.PutVec(col)
	return dst
}

// Inverse returns A⁻¹.
func (c *Cholesky) Inverse() *Dense {
	return c.InverseInto(nil, nil)
}

// InverseInto writes A⁻¹ into dst (allocated when nil) with scratch from
// ws — the in-place counterpart of Inverse for hot loops that rebuild the
// same-sized inverse every iteration.
func (c *Cholesky) InverseInto(ws *Workspace, dst *Dense) *Dense {
	n := c.L.Rows
	if dst == nil {
		dst = NewDense(n, n)
	} else if dst.Rows != n || dst.Cols != n {
		panic("mat: Cholesky InverseInto shape mismatch")
	}
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Set(i, i, 1)
	}
	return c.SolveInto(ws, dst, dst)
}

// InvSPD inverts a symmetric positive definite matrix, applying a ridge if
// needed. It panics only on shape errors; numerically hopeless inputs
// return an error.
func InvSPD(a *Dense) (*Dense, error) {
	ch, _, err := NewCholeskyRidge(a, 1e-12)
	if err != nil {
		return nil, err
	}
	return ch.Inverse(), nil
}
