package mat

import "math"

// SPDFuncs holds an eigendecomposition of an SPD matrix and serves matrix
// functions of it (A^{1/2}, A^{-1/2}, A^{-1}). The paper needs Σ⋄^{±1/2}
// for the tilde transform of Eq. 8 both globally (Exact-FIRAL) and per
// d×d block (Approx-FIRAL ROUND, Algorithm 3 line 9).
type SPDFuncs struct {
	vals []float64
	vecs *Dense
	// floor is the eigenvalue floor applied when inverting, guarding
	// rank-deficient inputs (e.g. Σ blocks before any mass accumulates).
	floor float64
}

// NewSPDFuncs eigendecomposes the symmetric PSD matrix a. Eigenvalues
// below floor·λmax are clamped to floor·λmax for inverse-type functions.
func NewSPDFuncs(a *Dense, floor float64) (*SPDFuncs, error) {
	vals, vecs, err := SymEig(a)
	if err != nil {
		return nil, err
	}
	return &SPDFuncs{vals: vals, vecs: vecs, floor: floor}, nil
}

// apply returns V diag(f(λ)) Vᵀ in dst (allocated when nil), with its
// scratch from ws.
func (s *SPDFuncs) apply(ws *Workspace, dst *Dense, f func(float64) float64) *Dense {
	n := len(s.vals)
	scaled := ws.Matrix(n, n)
	for j := 0; j < n; j++ {
		fj := f(s.vals[j])
		for i := 0; i < n; i++ {
			scaled.Set(i, j, s.vecs.At(i, j)*fj)
		}
	}
	dst = MulTransB(dst, scaled, s.vecs)
	ws.PutMatrix(scaled)
	return dst
}

func (s *SPDFuncs) clamped(v float64) float64 {
	lmax := s.vals[len(s.vals)-1]
	lo := s.floor * math.Max(lmax, 1e-300)
	if v < lo {
		return lo
	}
	return v
}

// InvSqrt returns A^{-1/2} with eigenvalue flooring.
func (s *SPDFuncs) InvSqrt() *Dense { return s.apply(nil, nil, s.invSqrt) }

func (s *SPDFuncs) invSqrt(l float64) float64 { return 1 / math.Sqrt(s.clamped(l)) }

// InvSqrtInto writes A^{-1/2} of the symmetric PSD matrix a into dst
// (must not alias a) with every temporary drawn from ws: bit for bit
// NewSPDFuncs(a, floor).InvSqrt(), without its per-call matrices.
func InvSqrtInto(ws *Workspace, dst, a *Dense, floor float64) error {
	n := a.Rows
	s := SPDFuncs{vals: ws.Vec(n), vecs: ws.Matrix(n, n), floor: floor}
	defer ws.PutVec(s.vals)
	defer ws.PutMatrix(s.vecs)
	if _, _, err := SymEigInto(ws, s.vals, s.vecs, a); err != nil {
		return err
	}
	s.apply(ws, dst, s.invSqrt)
	return nil
}

// Cond returns the 2-norm condition number λmax/λmin (after flooring),
// used to report preconditioner quality as in § III-A.
func (s *SPDFuncs) Cond() float64 {
	lmin := s.clamped(s.vals[0])
	lmax := s.vals[len(s.vals)-1]
	return lmax / lmin
}
