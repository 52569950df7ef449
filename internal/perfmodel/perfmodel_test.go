package perfmodel

import (
	"strings"
	"testing"
)

func TestPaperConstants(t *testing.T) {
	m := Paper()
	if m.Flops != 19.5e12 {
		t.Fatalf("Flops %g", m.Flops)
	}
	if m.Ts != 1e-4 || m.Tw != 1/2.0e10 || m.Tc != 1e-10 {
		t.Fatalf("comm constants wrong: %+v", m)
	}
}

func TestCollectivesZeroAtP1(t *testing.T) {
	m := Paper()
	if m.Allreduce(1000, 1) != 0 || m.Bcast(1000, 1) != 0 {
		t.Fatal("p=1 should cost nothing")
	}
}

func TestCollectivesGrowWithP(t *testing.T) {
	m := Paper()
	if m.Allreduce(1e6, 4) <= m.Allreduce(1e6, 2) {
		t.Fatal("allreduce should grow with p")
	}
	if m.Bcast(1e6, 8) <= m.Bcast(1e6, 2) {
		t.Fatal("bcast should grow with p")
	}
}

// TestStrongScalingShape: compute terms with an n/p factor must scale
// close to 1/p — the Fig. 6/7 ideal-speedup dashed lines.
func TestStrongScalingShape(t *testing.T) {
	m := Paper()
	q1 := RelaxParams{N: 1_300_000, D: 383, C: 1000, S: 10, NCG: 50, P: 1}
	q12 := q1
	q12.P = 12
	cg1, cg12 := m.CGComp(q1), m.CGComp(q12)
	speedup := cg1 / cg12
	if speedup < 11 || speedup > 12.5 {
		t.Fatalf("CG strong-scaling speedup %g, want ≈12", speedup)
	}
	r1 := RoundParams{N: 1_300_000, D: 383, C: 1000, P: 1}
	r12 := r1
	r12.P = 12
	if s := m.EigComp(r1) / m.EigComp(r12); s < 11.5 || s > 12.5 {
		t.Fatalf("eig speedup %g", s)
	}
}

// TestWeakScalingShape: with n per rank fixed, compute should be nearly
// flat while communication grows logarithmically (Fig. 6 B/D behaviour).
func TestWeakScalingShape(t *testing.T) {
	m := Paper()
	base := RelaxParams{N: 100_000, D: 383, C: 1000, S: 10, NCG: 50, P: 1}
	t1 := m.CGComp(base)
	grown := base
	grown.N = 100_000 * 12
	grown.P = 12
	t12 := m.CGComp(grown)
	if rel := (t12 - t1) / t1; rel > 0.01 {
		t.Fatalf("weak-scaling compute drifted %g%%", 100*rel)
	}
	if m.CGComm(grown) <= m.CGComm(RelaxParams{N: 2, D: 383, C: 1000, S: 10, NCG: 50, P: 2}) {
		t.Fatal("comm should grow with p")
	}
}

// TestLinearInC: both RELAX and ROUND components scale linearly with c
// (§ IV-B "the complexity of the RELAX step scales linearly with the
// number of classes").
func TestLinearInC(t *testing.T) {
	m := Paper()
	mk := func(c int) RelaxParams {
		return RelaxParams{N: 1_300_000, D: 383, C: c, S: 10, NCG: 50, P: 1}
	}
	r100, r1000 := m.PrecondComp(mk(100)), m.PrecondComp(mk(1000))
	if ratio := r1000 / r100; ratio < 9.5 || ratio > 10.5 {
		t.Fatalf("precond c-scaling ratio %g, want ≈10", ratio)
	}
	o100 := m.ObjectiveComp(RoundParams{N: 1_300_000, D: 383, C: 100, P: 1})
	o1000 := m.ObjectiveComp(RoundParams{N: 1_300_000, D: 383, C: 1000, P: 1})
	if ratio := o1000 / o100; ratio < 9.5 || ratio > 10.5 {
		t.Fatalf("objective c-scaling ratio %g, want ≈10", ratio)
	}
}

// TestSuperlinearInD: the d³ terms make the preconditioner grow faster
// than d² when d doubles (the paper reports 4.72× for d 383→766).
func TestSuperlinearInD(t *testing.T) {
	m := Paper()
	mk := func(d int) RelaxParams {
		return RelaxParams{N: 100_000, D: d, C: 1000, S: 10, NCG: 50, P: 1}
	}
	p383, p766 := m.PrecondComp(mk(383)), m.PrecondComp(mk(766))
	ratio := p766 / p383
	if ratio < 4 || ratio > 6.5 {
		t.Fatalf("precond d-scaling ratio %g, want ≈4.7 (paper)", ratio)
	}
	// CG is linear in d: paper reports 1.7×... ≈2.
	c383, c766 := m.CGComp(mk(383)), m.CGComp(mk(766))
	if r := c766 / c383; r < 1.5 || r > 2.5 {
		t.Fatalf("CG d-scaling ratio %g, want ≈2", r)
	}
}

// TestTableIIRatios: the approximation must win by orders of magnitude at
// ImageNet-1k scale, consistent with Table II/VI.
func TestTableIIRatios(t *testing.T) {
	n, d, c := 50_000, 383, 1000
	if r := ExactStorage(n, d, c) / ApproxRelaxStorage(n, d, c, 10); r < 1000 {
		t.Fatalf("storage ratio only %g", r)
	}
	if r := ExactRoundWork(200, n, d, c) / ApproxRoundWork(200, n, d, c); r < 1000 {
		t.Fatalf("round work ratio only %g", r)
	}
	if r := DirectMatvecWork(d, c) / FastMatvecWork(d, c); r != float64(d)*float64(c) {
		t.Fatalf("matvec ratio %g", r)
	}
}

func TestFormatters(t *testing.T) {
	s := FormatTableII(100, 50, 5000, 50, 50, 50, 10)
	if !strings.Contains(s, "Exact-FIRAL") || !strings.Contains(s, "ratio") {
		t.Fatalf("Table II format: %s", s)
	}
	s3 := FormatTableIII(383, 1000)
	if !strings.Contains(s3, "Lemma 2") {
		t.Fatalf("Table III format: %s", s3)
	}
}

func TestHostModel(t *testing.T) {
	h := Host(5e9)
	if h.Flops != 5e9 || h.BytesPerWord != 8 {
		t.Fatalf("host model %+v", h)
	}
}
