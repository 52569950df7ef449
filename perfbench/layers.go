package main

import (
	"log"
	"math"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/timing"
)

// perLayer lists every per-layer metric a traced run reports, for every
// workload; a layer a workload does not exercise reads 0. Names start
// with the repository package whose calls they time (trace.* describe
// the tracing itself). interactions.json says which end-to-end metric
// each should move, on which workload.
var perLayer = []string{
	"dataset.read_calls", "dataset.rows_read", "dataset.decode_sweeps",
	"dataset.decode_s", "dataset.wait_s", "dataset.prefetch_hit_ratio",
	"firal.relax.precond_s", "firal.relax.cg_s", "firal.relax.gradient_s", "firal.relax.other_s",
	"firal.round.objective_s", "firal.round.eig_s", "firal.round.other_s",
	"krylov.cg_iterations",
	"hessian.kernel_s", "hessian.gflops", "hessian.flop_per_byte",
	"mat.gemm_gflops",
	"mpi.sent_bytes", "mpi.sent_messages", "mpi.collectives",
	"mpi.send_s", "mpi.recv_wait_s", "mpi.bootstrap_s",
	"distfiral.relax.comm_s", "distfiral.round.comm_s",
	"server.post_s", "server.queue_s", "server.train_s", "server.select_s",
	"server.overhead_s", "server.labels_s", "server.append_s", "server.rejected",
	"perfmodel.precond_ratio", "perfmodel.cg_ratio", "perfmodel.gradient_ratio",
	"perfmodel.objective_ratio", "perfmodel.eig_ratio",
	"perfmodel.flops_per_op", "perfmodel.bytes_per_op",
	"trace.coverage", "trace.overhead_frac",
}

// samples collects one value per traced operation and metric; a traced
// run reports each metric's median over its traced operations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// finish writes the per-layer medians into h.layers, zero-filling
// metrics the workload does not produce, and adds the trace overhead.
func (h *harness) finishLayers(s samples, tracedSecs []float64) {
	for _, name := range perLayer {
		h.layers[name] = 0
	}
	for name, vs := range s {
		if _, ok := h.layers[name]; !ok {
			log.Fatalf("per-layer metric %q is not declared in perLayer", name)
		}
		h.layers[name] = median(vs)
	}
	h.layers["trace.overhead_frac"] = median(tracedSecs)/median(h.opSecs) - 1
	log.Printf("traced op_s samples %v, untraced %v", fmtSecs(tracedSecs), fmtSecs(h.opSecs))
}

// phaseSum is the total of every phase a Phases recorded.
func phaseSum(ps ...*timing.Phases) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.Total()
	}
	return d
}

// shape describes one Approx-FIRAL operation for the cost model.
type shape struct {
	n, d, c   int // pool rows, features, Fisher blocks
	probes    int
	iters     int // RELAX mirror-descent iterations
	cgIters   int // total per-column CG iterations of the operation
	budget    int
	ranks     int
	elemBytes int // bytes per stored feature value (4: float32 shard, 8: resident)
}

// blockCG is the number of block-CG iterations per mirror-descent
// iteration implied by the per-column total (each block iteration costs
// one pool sweep for all probes).
func (q shape) blockCG() int {
	return max(1, int(math.Round(float64(q.cgIters)/float64(q.probes*q.iters))))
}

// flops is the computed flop count of one operation from the Table II
// complexity functions: fast RELAX plus diagonal ROUND.
func (q shape) flops() float64 {
	return perfmodel.ApproxRelaxWork(q.iters, q.n, q.d, q.c, q.blockCG(), q.probes) +
		perfmodel.ApproxRoundWork(q.budget, q.n, q.d, q.c)
}

// bytes is the computed pool traffic of one operation: the sweeps the
// algorithm makes over features and probabilities. Per RELAX iteration
// one preconditioner sweep, one per block-CG iteration, the Hp·W sweep
// and the gradient sweep; ROUND sweeps once for Σ⋄ and once per pick.
func (q shape) bytes() float64 {
	sweeps := float64(q.iters*(3+q.blockCG()) + 1 + q.budget)
	return sweeps * float64(q.n) * float64(q.d*q.elemBytes+q.c*8)
}

// addModel records the computed roofline inputs and the measured over
// predicted ratio of each modelled phase at the host-calibrated rate.
func addModel(s samples, m perfmodel.Machine, q shape, relax, round *timing.Phases, waitS float64) {
	rp := perfmodel.RelaxParams{N: q.n, D: q.d, C: q.c, S: q.probes, NCG: q.blockCG(), P: q.ranks}
	pre, cg, grad, _ := m.RelaxIter(rp)
	it := float64(q.iters)
	rq := perfmodel.RoundParams{N: q.n, D: q.d, C: q.c, P: q.ranks}
	b := float64(q.budget)
	s.add("perfmodel.precond_ratio", relax.Seconds("precond")/(it*pre))
	s.add("perfmodel.cg_ratio", relax.Seconds("cg")/(it*cg))
	s.add("perfmodel.gradient_ratio", relax.Seconds("gradient")/(it*grad))
	s.add("perfmodel.objective_ratio", round.Seconds("objective")/(b*m.ObjectiveComp(rq)))
	s.add("perfmodel.eig_ratio", round.Seconds("eig")/(b*m.EigComp(rq)))

	kernel := relax.Seconds("cg") + relax.Seconds("gradient") + round.Seconds("objective") - waitS
	s.add("hessian.kernel_s", kernel)
	s.add("hessian.gflops", q.flops()/float64(q.ranks)/kernel/1e9) // one rank's share
	s.add("hessian.flop_per_byte", q.flops()/q.bytes())
	s.add("perfmodel.flops_per_op", q.flops())
	s.add("perfmodel.bytes_per_op", q.bytes())
}

// addPhases records RELAX and ROUND phase times.
func addPhases(s samples, relax, round *timing.Phases) {
	for _, p := range []string{"precond", "cg", "gradient", "other"} {
		s.add("firal.relax."+p+"_s", relax.Seconds(p))
	}
	for _, p := range []string{"objective", "eig", "other"} {
		s.add("firal.round."+p+"_s", round.Seconds(p))
	}
}

// calibrate measures the host GEMM rate (best of three calibrations, so
// one preempted run does not set the model's rate).
func calibrate() perfmodel.Machine {
	var best perfmodel.Machine
	for i := 0; i < 3; i++ {
		if m := perfmodel.CalibrateHost(); m.Flops > best.Flops {
			best = m
		}
	}
	return best
}
