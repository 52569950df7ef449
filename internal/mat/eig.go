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
// return. z must be symmetric on entry.
//
// Step i works on the leading i×i block A of z and keeps both of its
// triangles: the rank-2 update writes element (k, j) with the same
// products as (j, k), summed in the other order, so the block stays
// exactly symmetric and its row k is its column k. That turns the
// symmetric product p = A·u (per element Σ_k A_jk u_k over ascending k,
// with the lower triangle read by rows and the upper by columns) into
// AccumRows over the rows of A, and every loop of the reduction and of
// the back-accumulation into a contiguous row kernel.
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
					h += float64(zi[k] * zi[k])
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= float64(f * g)
				zi[l] = f - g
				a := Dense{Rows: i, Cols: i, Stride: z.Stride, Data: z.Data}
				u, p := zi[:i], e[:i]
				// p = A·u/h. AccumRows skips a zero u_k; the sum starts
				// from +0 and so never is −0, which makes adding the
				// zero product of a finite entry a no-op.
				clear(p)
				AccumRows(&Dense{Rows: 1, Cols: i, Stride: i, Data: p}, u, 1, &a)
				f = 0
				for j, uj := range u {
					if wantV {
						z.Set(j, i, uj/h)
					}
					p[j] /= h
					f += float64(p[j] * uj)
				}
				hh := f / (h + h)
				for j, uj := range u {
					p[j] -= float64(hh * uj)
				}
				symRank2(&a, u, p)
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
			a := Dense{Rows: i, Cols: i, Stride: z.Stride, Data: z.Data}
			gi := g[:i]
			clear(gi)
			AccumRows(&Dense{Rows: 1, Cols: i, Stride: i, Data: gi}, z.Row(i), 1, &a)
			rank1Sub(&a, z.Data[i:], z.Stride, gi)
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
				b := float64(c * e[i])
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
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - b
				if zt != nil {
					rot(zt.Row(i), zt.Row(i+1), c, s)
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

// The row kernels of the eigensolver. Each runs the loop of its Go twin
// (rotGo, symRank2Go, rank1SubGo) on the host's widest vector level:
// eight columns per ZMM register at the avx512 level, then four per YMM
// register, then one, with the Go loop's multiplies and adds in its
// per-element order, so every level gives the same bits (eig_amd64.s).
// Unlike the product kernels they keep a separate multiply and add: a
// rotation or rank-2 update combines two products of old values, not a
// running sum, so a fused form would have to pick which product goes
// unrounded, and the eigensolves (O(c·d³) per round) are too small a
// share of a round for the fused form to pay for moving their bits. The
// Go loops round each product with float64(), as every separate multiply
// and add in this package does, because the arm64 compiler would
// otherwise fuse them where amd64's does not (scripts/arm64_fma.sh).

// rot applies tql's plane rotation to rows x and y: y ← s·x + c·y and
// x ← c·x − s·y, element by element from the old values.
//
//firal:hotpath
func rot(x, y []float64, c, s float64) {
	y = y[:len(x)]
	if kernel == kernelPortable || len(x) == 0 {
		rotGo(x, y, c, s)
		return
	}
	rotAVX(len(x), &x[0], &y[0], c, s, kernel == kernelAVX512)
}

//firal:hotpath
func rotGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k := range x {
		f := y[k]
		y[k] = float64(s*x[k]) + float64(c*f)
		x[k] = float64(c*x[k]) - float64(s*f)
	}
}

// symRank2 subtracts the symmetric rank-2 term u·pᵀ + p·uᵀ from the
// square a: a_jk −= u_j·p_k + p_j·u_k.
//
//firal:hotpath
func symRank2(a *Dense, u, p []float64) {
	n := a.Rows
	if a.Cols != n || len(u) != n || len(p) != n {
		panic("mat: symRank2 dimension mismatch")
	}
	if n == 0 {
		return
	}
	_ = a.Row(n - 1) // bounds: every row lies inside a.Data
	if kernel == kernelPortable {
		symRank2Go(a, u, p)
		return
	}
	symRank2AVX(n, &a.Data[0], a.Stride, &u[0], &p[0], kernel == kernelAVX512)
}

//firal:hotpath
func symRank2Go(a *Dense, u, p []float64) {
	for j := 0; j < a.Rows; j++ {
		f, g := u[j], p[j]
		aj := a.Row(j)
		for k := range aj {
			aj[k] -= float64(f*p[k]) + float64(g*u[k])
		}
	}
}

// rank1Sub subtracts the rank-1 term c·xᵀ from a, with c_k = c[k·cs]:
// a_kj = a_kj − x_j·c_k.
//
//firal:hotpath
func rank1Sub(a *Dense, c []float64, cs int, x []float64) {
	if len(x) != a.Cols {
		panic("mat: rank1Sub dimension mismatch")
	}
	if a.Rows == 0 || len(x) == 0 {
		return
	}
	_ = c[(a.Rows-1)*cs]  // bounds: every coefficient lies inside c
	_ = a.Row(a.Rows - 1) // and every row inside a.Data
	if kernel == kernelPortable {
		rank1SubGo(a, c, cs, x)
		return
	}
	rank1SubAVX(len(x), &a.Data[0], a.Stride, a.Rows, &c[0], cs, &x[0], kernel == kernelAVX512)
}

//firal:hotpath
func rank1SubGo(a *Dense, c []float64, cs int, x []float64) {
	for k := 0; k < a.Rows; k++ {
		ck, ak := c[k*cs], a.Row(k)
		for j := range ak {
			ak[j] = ak[j] - float64(x[j]*ck)
		}
	}
}
