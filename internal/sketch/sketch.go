// Package sketch implements the randomized trace estimation used by the
// fast RELAX solver (§ III-A): Hutchinson's estimator with Rademacher
// probes [15]. Trace(A) ≈ (1/s) Σ_j v_jᵀ A v_j for ±1 probe vectors v_j.
package sketch

import "repro/internal/mat"

// The probe block of Algorithm 2, line 4 is drawn directly into a hoisted
// buffer with rnd.Source.Rademacher (the RELAX solvers reuse one Dense
// across iterations), so no matrix-returning helper exists here.

// TraceFromProbesT estimates Trace(A) ≈ (1/s) Σ_j v_jᵀ (A v_j) from a
// probe block and its image, both transposed (s×n, row j = probe j — the
// layout of the block-CG RELAX path). This is how Algorithm 2 reuses the
// CG solutions: the same probe block serves the trace estimates of all n
// gradient entries. The rows are contiguous, so the estimate needs no
// column extraction and no scratch.
func TraceFromProbesT(vt, avt *mat.Dense) float64 {
	if vt.Rows != avt.Rows || vt.Cols != avt.Cols {
		panic("sketch: probe shape mismatch")
	}
	var acc float64
	for j := 0; j < vt.Rows; j++ {
		acc += mat.Dot(vt.Row(j), avt.Row(j))
	}
	return acc / float64(vt.Rows)
}
