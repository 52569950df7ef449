package mat

import (
	"errors"
	"math"
	"sort"

	"repro/internal/parallel"
)

// ErrEigNoConverge is returned when the implicit QL iteration fails to
// converge. With the iteration cap used here this indicates NaN/Inf input.
var ErrEigNoConverge = errors.New("mat: symmetric eigensolver did not converge")

// SymEig computes the full eigendecomposition of the symmetric matrix a:
// a = V diag(vals) Vᵀ with vals in ascending order and eigenvectors in the
// columns of V. Only the lower triangle of a is trusted; a is not modified.
//
// This is the CPU substitute for the paper's batched
// cupy.linalg.eigvalsh/eigh calls (Algorithm 3, line 9, and the Σ^{±1/2}
// transforms of Eq. 8). It uses Householder tridiagonalization followed by
// implicit-shift QL iteration.
func SymEig(a *Dense) ([]float64, *Dense, error) {
	return SymEigInto(nil, nil, nil, a)
}

// SymEigInto is SymEig with the eigenvalues written into vals (reused when
// its capacity suffices) and the eigenvectors into vecs (reused when it is
// n×n), each allocated otherwise, and the scratch drawn from ws — the
// per-class eigenbasis rebuild of the ROUND loop. vecs may alias a. The
// results are bit for bit those of SymEig. A nil ws, vals or vecs falls
// back to allocation.
func SymEigInto(ws *Workspace, vals []float64, vecs, a *Dense) ([]float64, *Dense, error) {
	n := a.Rows
	if a.Cols != n {
		panic("mat: SymEig of non-square matrix")
	}
	if vecs == nil || vecs.Rows != n || vecs.Cols != n {
		vecs = NewDense(n, n)
	}
	vecs.CopyFrom(a)
	vecs.Symmetrize()
	if cap(vals) < n {
		vals = make([]float64, n)
	} else {
		vals = vals[:n]
	}
	e, g := ws.Vec(n), ws.Vec(n)
	tred2(vecs, vals, e, g)
	ws.PutVec(g)
	// The QL rotations and the sort run on the eigenvectors as rows.
	vecs.transposeSquare()
	err := tql(vals, e, vecs)
	ws.PutVec(e)
	if err != nil {
		return nil, nil, err
	}
	sortEig(vals, vecs)
	vecs.transposeSquare()
	return vals, vecs, nil
}

// SymEigvals computes only the eigenvalues of symmetric a, in ascending
// order (the cupy.linalg.eigvalsh analogue). It avoids accumulating the
// orthogonal transform, roughly halving the work of SymEig.
func SymEigvals(a *Dense) ([]float64, error) {
	return SymEigvalsInto(nil, nil, a)
}

// SymEigvalsInto is SymEigvals with the tridiagonalization scratch drawn
// from ws and the eigenvalues written into dst (reused when its capacity
// suffices, allocated otherwise) — the per-update eigen scratch of the
// ROUND loop. A nil ws or dst falls back to allocation.
func SymEigvalsInto(ws *Workspace, dst []float64, a *Dense) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		panic("mat: SymEigvals of non-square matrix")
	}
	work := ws.Matrix(n, n)
	work.CopyFrom(a)
	work.Symmetrize()
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	e := ws.Vec(n)
	tred2(work, dst, e, nil)
	err := tql(dst, e, nil)
	ws.PutVec(e)
	ws.PutMatrix(work)
	if err != nil {
		return nil, err
	}
	sort.Float64s(dst)
	return dst, nil
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form with
// diagonal d and sub-diagonal e (e[0] unused). When g (length-n scratch)
// is non-nil, z is overwritten with the accumulated orthogonal
// transformation Q such that Qᵀ A Q = T; otherwise z holds scratch data on
// return.
func tred2(z *Dense, d, e, g []float64) {
	n := z.Rows
	wantV := g != nil
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				zi := z.Row(i)
				for k := 0; k <= l; k++ {
					zi[k] /= scale
					h += zi[k] * zi[k]
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					if wantV {
						z.Set(j, i, zi[j]/h)
					}
					g := 0.0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * zi[k]
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * zi[k]
					}
					e[j] = g / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f := zi[j]
					g := e[j] - hh*f
					e[j] = g
					zj := z.Row(j)
					for k := 0; k <= j; k++ {
						zj[k] -= f*e[k] + g*zi[k]
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	if !wantV {
		for i := 0; i < n; i++ {
			d[i] = z.At(i, i)
		}
		return
	}
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			// g_j = Σ_k z_ik z_kj (k ascending), then z_kj −= g_j z_ki for
			// j, k ≤ l, row by row. No update touches an operand of any g,
			// so this is the column-by-column recurrence, element for
			// element.
			zi := z.Row(i)
			gi := g[:i]
			clear(gi)
			for k := 0; k <= l; k++ {
				zik, zk := zi[k], z.Row(k)[:i]
				for j := range gi {
					gi[j] += zik * zk[j]
				}
			}
			for k := 0; k <= l; k++ {
				zk := z.Row(k)
				zki := zk[i]
				zk = zk[:i]
				for j := range gi {
					zk[j] = zk[j] - gi[j]*zki
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tql performs implicit-shift QL iteration on the tridiagonal matrix
// (d, e). When zt is non-nil the rotations are accumulated into it, which
// holds the transformation transposed: row i is eigenvector i.
func tql(d, e []float64, zt *Dense) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 64 {
				return ErrEigNoConverge
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			broke := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					broke = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if zt != nil {
					zi, zj := zt.Row(i), zt.Row(i+1)
					zj = zj[:len(zi)]
					for k := range zi {
						f := zj[k]
						zj[k] = s*zi[k] + c*f
						zi[k] = c*zi[k] - s*f
					}
				}
			}
			if broke {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// sortEig sorts eigenvalues ascending and permutes the eigenvector rows of
// zt to match, in place. The sort runs on the pairs themselves, so the
// comparisons — and with them the order of tied eigenvalues — are those
// of sorting an index permutation by value and applying it afterwards.
func sortEig(d []float64, zt *Dense) {
	s := eigSorters.Get()
	s.d, s.zt = d, zt
	sort.Sort(s)
	s.d, s.zt = nil, nil
	eigSorters.Put(s)
}

// eigSorter sorts eigenpairs by value: Swap exchanges two eigenvalues and
// their eigenvector rows. Pooled so that sorting allocates nothing.
type eigSorter struct {
	d  []float64
	zt *Dense
}

var eigSorters = parallel.FreeList[eigSorter]{New: func() *eigSorter { return new(eigSorter) }}

func (s *eigSorter) Len() int           { return len(s.d) }
func (s *eigSorter) Less(i, j int) bool { return s.d[i] < s.d[j] }
func (s *eigSorter) Swap(i, j int) {
	s.d[i], s.d[j] = s.d[j], s.d[i]
	ri, rj := s.zt.Row(i), s.zt.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// transposeSquare transposes the square matrix m in place.
func (m *Dense) transposeSquare() {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			a, b := m.At(i, j), m.At(j, i)
			m.Set(i, j, b)
			m.Set(j, i, a)
		}
	}
}
