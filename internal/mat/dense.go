// Package mat implements the dense linear-algebra substrate the paper gets
// from CuPy: matrix products, weighted Gram matrices, Cholesky
// factorization, a symmetric eigensolver, and SPD matrix functions
// (inverse, square root, inverse square root). Batched kernels are
// parallelized over host cores via internal/parallel, mirroring how the
// paper's batched cupy.linalg calls parallelize over GPU SMs.
//
// All storage is row-major float64. The paper uses float32 on GPUs; we use
// float64 on CPUs for robustness and document the difference in DESIGN.md.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix. The zero value is an empty matrix; use
// NewDense to allocate.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (copied).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 {
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// Col copies column j into dst (allocating if dst is nil) and returns it.
func (m *Dense) Col(dst []float64, j int) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.At(i, j)
	}
	return dst
}

// SetCol writes src into column j.
func (m *Dense) SetCol(j int, src []float64) {
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, src[i])
	}
}

// RowSlice returns a view of rows [lo, hi) sharing m's storage.
func (m *Dense) RowSlice(lo, hi int) *Dense {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: RowSlice [%d, %d) out of range [0, %d)", lo, hi, m.Rows))
	}
	return &Dense{Rows: hi - lo, Cols: m.Cols, Stride: m.Stride, Data: m.Data[lo*m.Stride:]}
}

// Clone returns a deep copy with compact stride.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies a into m; dimensions must match.
func (m *Dense) CopyFrom(a *Dense) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic(fmt.Sprintf("mat: copy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), a.Row(i))
	}
}

// Zero sets all elements to 0.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Scale multiplies every element by alpha.
func (m *Dense) Scale(alpha float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= alpha
		}
	}
}

// AddScaled performs m += alpha*a. Shapes must match.
func (m *Dense) AddScaled(alpha float64, a *Dense) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst, src := m.Row(i), a.Row(i)
		for j := range dst {
			dst[j] += float64(alpha * src[j])
		}
	}
}

// AddDiag performs m += alpha*I on a square matrix.
func (m *Dense) AddDiag(alpha float64) {
	if m.Rows != m.Cols {
		panic("mat: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Stride+i] += alpha
	}
}

// AddOuter performs m += alpha * x xᵀ for square m (symmetric rank-1
// update; both triangles are written).
func (m *Dense) AddOuter(alpha float64, x []float64) {
	n := m.Rows
	if m.Cols != n || len(x) != n {
		panic("mat: AddOuter shape mismatch")
	}
	for i := 0; i < n; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j] += float64(xi * x[j])
		}
	}
}

// T returns a newly allocated transpose.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Trace returns the sum of diagonal entries of a square matrix.
func (m *Dense) Trace() float64 {
	if m.Rows != m.Cols {
		panic("mat: Trace on non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// FrobDot returns the matrix inner product A·B = Σ_ij A_ij B_ij (the "·"
// of Eq. 4 in the paper).
func FrobDot(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: FrobDot shape mismatch")
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			s += float64(ra[j] * rb[j])
		}
	}
	return s
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|, a convenience for tests.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
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

// Symmetrize replaces m with (m + mᵀ)/2.
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}
