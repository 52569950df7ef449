// Package perfmodel implements the theoretical performance model of
// § III-C: per-kernel peak-compute times from FLOP counts at a given
// machine rate, and collective-communication times under the
// latency/bandwidth/reduce model of Thakur et al. [17]
// (ts + m·tw + m·tc). The experiment harnesses print these estimates next
// to measured times, reproducing the paired theoretical/experimental bars
// of Figs. 5–7.
package perfmodel

import "math"

// Machine holds the model constants. The paper's values: 19.5 TFLOPS
// fp32 peak on an A100, ts = 1e-4 s, 1/tw = 2e10 B/s, tc = 1e-10 s/B,
// 4-byte words (fp32).
type Machine struct {
	Flops        float64 // peak FLOP/s
	Ts           float64 // message latency (s)
	Tw           float64 // transfer time per byte (s)
	Tc           float64 // local reduce compute per byte (s)
	BytesPerWord float64
}

// Host returns a model of the local CPU device for like-for-like
// comparison with measured Go times: flopRate is an empirically calibrated
// effective FLOP/s of the Go kernels on this host. Communication constants
// model in-process channel transfers.
func Host(flopRate float64) Machine {
	return Machine{Flops: flopRate, Ts: 2e-6, Tw: 1 / 4.0e9, Tc: 2.5e-10, BytesPerWord: 8}
}

func (m Machine) comp(flops float64) float64 { return flops / m.Flops }

func logp(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// Allreduce models a recursive-doubling allreduce of words elements:
// log p · (ts + m(tw + tc)).
func (m Machine) Allreduce(words float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	bytes := words * m.BytesPerWord
	return logp(p) * (m.Ts + bytes*(m.Tw+m.Tc))
}

// Bcast models a binomial-tree broadcast: log p · (ts + m·tw).
func (m Machine) Bcast(words float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	bytes := words * m.BytesPerWord
	return logp(p) * (m.Ts + bytes*m.Tw)
}

// RelaxParams collects the sizes entering the RELAX model.
type RelaxParams struct {
	N, D, C, S int // pool size, dim, classes, probes
	NCG        int // CG iterations per solve
	P          int // ranks
}

// PrecondComp is the per-iteration preconditioner construction time:
// (2·(n/p)·c·d² + c·d³)/F — building {B_k(Σz)} then inverting each block
// (§ IV-B: cd³ + 2cnd²).
func (m Machine) PrecondComp(q RelaxParams) float64 {
	np := float64(q.N) / float64(q.P)
	d, c := float64(q.D), float64(q.C)
	return m.comp(2*np*c*d*d + c*d*d*d)
}

// PrecondComm is the block allreduce of cd² words (Eq. 22).
func (m Machine) PrecondComm(q RelaxParams) float64 {
	return m.Allreduce(float64(q.C)*float64(q.D)*float64(q.D), q.P)
}

// CGComp is the CG time for the two multi-RHS solves of one mirror-descent
// iteration: nCG iterations, each a fast matvec 4·(n/p)·c·s·d plus the
// block-preconditioner application 2·c·d²·s (§ IV-B: dominated by
// 4·nCG·n·c·s·d).
func (m Machine) CGComp(q RelaxParams) float64 {
	np := float64(q.N) / float64(q.P)
	d, c, s := float64(q.D), float64(q.C), float64(q.S)
	per := 4*np*c*s*d + 2*c*d*d*s
	return m.comp(float64(q.NCG) * per)
}

// CGComm is the per-CG-iteration matvec allreduce of c·d·s words, nCG
// times (Eq. 24).
func (m Machine) CGComm(q RelaxParams) float64 {
	return float64(q.NCG) * m.Allreduce(float64(q.C)*float64(q.D)*float64(q.S), q.P)
}

// GradientComp covers line 7's Hp matvec and line 9's gradient
// accumulation: ≈ 8·(n/p)·c·d·s.
func (m Machine) GradientComp(q RelaxParams) float64 {
	np := float64(q.N) / float64(q.P)
	return m.comp(8 * np * float64(q.C) * float64(q.D) * float64(q.S))
}

// GradientComm is the Hp-matvec allreduce (c·d·s words) plus the scalar
// reductions of the mirror update.
func (m Machine) GradientComm(q RelaxParams) float64 {
	return m.Allreduce(float64(q.C)*float64(q.D)*float64(q.S), q.P) + 2*m.Allreduce(1, q.P)
}

// RelaxIter sums the compute of one mirror-descent iteration.
func (m Machine) RelaxIter(q RelaxParams) (precond, cg, gradient, comm float64) {
	precond = m.PrecondComp(q)
	cg = m.CGComp(q)
	gradient = m.GradientComp(q)
	comm = m.PrecondComm(q) + m.CGComm(q) + m.GradientComm(q)
	return
}

// RoundParams collects the sizes entering the ROUND model.
type RoundParams struct {
	N, D, C int
	P       int
}

// EigPrefactor is the paper's fitted constant for the batched symmetric
// eigensolver ("we fit the prefactor to 300").
const EigPrefactor = 300

// EigComp is the per-round eigenvalue time: 300·(c/p)·d³/F (line 9 of
// Algorithm 3, sharded over ranks, as the paper fits it). This system
// replicates the eigensolves instead: for p > 1 every rank computes all c
// of them, so its measured eig time does not fall with p.
func (m Machine) EigComp(q RoundParams) float64 {
	cp := float64(q.C) / float64(q.P)
	d := float64(q.D)
	return m.comp(EigPrefactor * cp * d * d * d)
}

// ObjectiveComp is the per-round Eq. 17 evaluation in the per-class
// eigenbasis: one GEMM y = x·W_k, 2·(n/p)·c·d², and two weighted row norms
// of y, 4·(n/p)·c·d. (The paper's § IV-B form, 3·c·d³ + 4·(n/p)·c·d², counts
// the two products x·P_k and x·B⁻¹_k of the Cholesky form.)
func (m Machine) ObjectiveComp(q RoundParams) float64 {
	np := float64(q.N) / float64(q.P)
	d, c := float64(q.D), float64(q.C)
	return m.comp(2*np*c*d*d + 4*np*c*d)
}

// RoundOtherComp covers the block-inverse rebuild of line 11 (≈ 2·c·d³)
// replicated on each rank, as the paper accounts it; the eigenbasis form
// of this system does that work in its eig phase.
func (m Machine) RoundOtherComp(q RoundParams) float64 {
	d, c := float64(q.D), float64(q.C)
	return m.comp(2 * c * d * d * d)
}

// RoundComm is the per-round communication: maxloc allreduce (2 words)
// and winner bcast (c+d words). No eigenvalues cross the wire: every rank
// computes all c eigensolves itself.
func (m Machine) RoundComm(q RoundParams) float64 {
	return m.Allreduce(2, q.P) + m.Bcast(float64(q.C+q.D), q.P)
}
