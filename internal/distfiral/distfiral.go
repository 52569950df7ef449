// Package distfiral runs the distributed-memory Approx-FIRAL of § III-C
// on the internal/mpi runtime. The data layout follows the paper: the n
// pool points (x_i, h_i) are evenly partitioned across the p ranks, while
// all ẽd-length vectors and all O(cd²) block matrices are replicated.
//
// The solvers themselves are not here: RELAX and ROUND exist once, as
// firal.RelaxGroup and firal.RoundGroup, and run unchanged over every
// rank count. This package supplies what the distributed run adds — shard
// construction, the adapter that lets an *mpi.Comm serve as the solvers'
// firal.Collective (timing each collective into the "comm" phase and
// agreeing on cancellation and read failures once per iteration),
// SelectInProcess, the one
// in-process selection runner for every rank count, and SelectResilient,
// the heal-reshard-resume loop over rank failures. Communication per
// § III-C:
//
//   - RELAX: the probe block is broadcast from rank 0; the block-diagonal
//     preconditioner, the block matvec partials inside CG and the two
//     mirror-step scalars are allreduced.
//   - ROUND: a maxloc allreduce picks the globally best candidate and the
//     winner's (x, h) is broadcast; every rank then computes all c block
//     eigensolves itself, so none of their results cross the wire.
package distfiral

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// Shard is one rank's view of the selection problem: the (small) labeled
// set replicated everywhere and this rank's contiguous slice of the pool.
// A Shard is owned by its rank goroutine; its fields must not change
// after the first solve.
type Shard struct {
	Labeled   *hessian.Set // Xo, replicated
	PoolLocal hessian.Pool // local slice of Xu (resident or block-streaming)
	// PoolOffset is the global index of the first local pool point.
	PoolOffset int
	// PoolTotal is the global pool size n.
	PoolTotal int

	// p is the rank-local problem, kept so its labeled-block cache lasts
	// round to round.
	p *firal.Problem
}

// MakeStreamShard cuts rank's partition out of a global pool, the paper's
// even distribution of x_i and h_i. It is the one way to shard a pool: a
// resident pool comes in as dataset.NewMatrixSource(pool.X) with pool.H.
// The rank-local pool is a hessian.Stream over a prefetched Subrange view
// of src, so nothing is materialized — every rank reads its contiguous
// row window of the shared source (safe: dataset sources support
// concurrent ReadRows) and indexes its slice of the replicated
// probability matrix, with each rank's next block decoding under the
// current block's kernels (dataset.WithPrefetch; resident sources skip
// the wrapper and serve zero-copy views). blockRows ≤ 0 selects
// dataset.BlockRowsFor of the rank's slice.
func MakeStreamShard(labeled *hessian.Set, src dataset.PoolSource, probs *mat.Dense, blockRows, size, rank int) *Shard {
	n := src.NumRows()
	lo, hi := mpi.Partition(n, size, rank)
	view := dataset.WithPrefetch(nil, dataset.Subrange(src, lo, hi), blockRows)
	local := hessian.NewStream(view, probs.RowSlice(lo, hi), blockRows)
	return &Shard{
		Labeled:    labeled,
		PoolLocal:  local,
		PoolOffset: lo,
		PoolTotal:  n,
	}
}

// bind returns the shard's place in the global pool under cm and its
// rank-local selection problem.
func (s *Shard) bind(cm firal.Collective) (firal.Group, *firal.Problem) {
	if s.p == nil {
		s.p = firal.NewProblem(s.Labeled, s.PoolLocal)
	}
	return firal.Group{Comm: cm, Offset: s.PoolOffset, Total: s.PoolTotal}, s.p
}

// comm adapts an *mpi.Comm to firal.Collective, timing every collective
// into ph's "comm" phase. cg is the CG solves' context: the caller's
// cancellation never reaches it (ranks must not leave a solve at
// different inner iterations), but a failed comm cancels it with the
// comm's error as cause, so a survivor stops computing on a dead group
// and reaches Heal promptly.
type comm struct {
	*mpi.Comm
	ph     *timing.Phases
	cg     context.Context
	stopCG context.CancelCauseFunc
}

func newComm(c *mpi.Comm) comm {
	cg, stop := context.WithCancelCause(context.Background())
	return comm{Comm: c, ph: timing.New(), cg: cg, stopCG: stop}
}

func (a comm) Bcast(root int, buf []float64) {
	defer a.ph.Start("comm")()
	a.Comm.Bcast(root, buf)
}

// Allreduce is the one collective inside a CG solve (the matvec
// partials), so it is where a failed comm stops the solve.
func (a comm) Allreduce(buf []float64) {
	defer a.ph.Start("comm")()
	a.Comm.Allreduce(buf, mpi.Sum)
	if err := a.Err(); err != nil {
		a.stopCG(err)
	}
}

func (a comm) AllreduceScalar(x float64, op mpi.Op) float64 {
	defer a.ph.Start("comm")()
	return a.Comm.AllreduceScalar(x, op)
}

func (a comm) AllreduceMaxLoc(val float64, loc int) (float64, int, int) {
	defer a.ph.Start("comm")()
	return a.Comm.AllreduceMaxLoc(val, loc)
}

func (a comm) Allgatherv(local []float64) []float64 {
	defer a.ph.Start("comm")()
	out, _ := a.Comm.Allgatherv(local)
	return out
}

// errPeerRead is what the poll returns on the ranks whose own reads
// succeeded when another rank's failed.
var errPeerRead = fmt.Errorf("%w on another rank", hessian.ErrPoolRead)

// Cancelled is the SPMD-safe poll. A rank whose comm has failed returns
// that error at once: its schedule is broken anyway. Otherwise every rank
// offers a code (0 go on, 1 ctx done, 2 pool read failed) and one Max
// allreduce agrees on the worst, so all ranks leave the collective
// schedule at the same iteration. The failed rank returns its own pool
// error, with the source chain; ranks that learn of a cancellation
// before their own ctx fires report context.Canceled.
func (a comm) Cancelled(ctx context.Context, poolErr error) error {
	if err := a.Err(); err != nil {
		return err
	}
	code := 0.0
	if poolErr != nil {
		code = 2
	} else if ctx.Err() != nil {
		code = 1
	}
	code = a.AllreduceScalar(code, mpi.Max)
	switch {
	case a.Err() != nil:
		return a.Err()
	case code == 2:
		return cmp.Or(poolErr, errPeerRead)
	case code == 1:
		return cmp.Or(ctx.Err(), context.Canceled)
	}
	return nil
}

// SolverContext hands the CG solves the comm's context (see comm).
func (a comm) SolverContext(context.Context) context.Context { return a.cg }

// RelaxResult and RoundResult are the solvers' reports; in a distributed
// run RelaxResult.Z is this rank's window of z⋄, and both Timings carry
// the rank's "comm" phase.
type (
	RelaxResult = firal.RelaxResult
	RoundResult = firal.RoundResult
)

// Relax runs the distributed fast RELAX (Algorithm 2 over MPI; see
// firal.RelaxGroup). o.WarmStart, o.OnIteration and o.Resume work as in
// the serial solver, with global vectors: each completed iteration
// allgathers the full simplex iterate so every rank holds an identical
// RelaxCheckpoint that can be resumed under a different rank count (the
// pool is re-sliced by this rank's Partition window). Because the
// checkpoint gather is a collective, OnIteration must be set on all
// ranks or on none. Failures end it as Select describes.
func Relax(ctx context.Context, c *mpi.Comm, s *Shard, b int, o firal.RelaxOptions) (res *RelaxResult, err error) {
	cm := newComm(c)
	g, p := s.bind(cm)
	if res, err = firal.RelaxGroup(ctx, g, p, b, o); err == nil {
		res.Timings.Merge(cm.ph)
	}
	return res, err
}

// Round runs the distributed diagonal ROUND step (Algorithm 3 over MPI;
// see firal.RoundGroup). zLocal is this rank's slice of z⋄; selections
// are global pool indices, identical across ranks. exclude lists global
// pool indices the step must not select (tombstones from earlier
// selection rounds, mirroring firal.Options.Exclude); it must be
// identical on every rank. Failures end it as Select describes.
func Round(ctx context.Context, c *mpi.Comm, s *Shard, zLocal []float64, b int, eta float64, exclude ...int) (res *RoundResult, err error) {
	cm := newComm(c)
	g, p := s.bind(cm)
	if res, err = firal.RoundGroup(ctx, g, p, zLocal, b, firal.RoundOptions{Eta: eta, Exclude: exclude}); err == nil {
		res.Timings.Merge(cm.ph)
	}
	return res, err
}

// Select runs the full distributed Approx-FIRAL (RELAX + ROUND) on one
// rank's shard. All ranks return identical Selected slices. exclude is
// passed to Round: global pool indices the selection must skip,
// identical on every rank.
//
// All ranks stop together, at the next per-iteration poll, once any
// rank's context is cancelled or a pool read fails (an error wrapping
// hessian.ErrPoolRead). A lost rank fails the survivors with an error
// satisfying errors.Is(err, mpi.ErrRankLost); see SelectResilient for
// the heal-reshard-resume loop.
func Select(ctx context.Context, c *mpi.Comm, s *Shard, b int, eta float64, relaxOpts firal.RelaxOptions, exclude ...int) ([]int, *RelaxResult, *RoundResult, error) {
	relax, err := Relax(ctx, c, s, b, relaxOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	round, err := Round(ctx, c, s, relax.Z, b, eta, exclude...)
	if err != nil {
		return nil, relax, nil, err
	}
	return round.Selected, relax, round, nil
}

// SelectInProcess is the one in-process Approx-FIRAL runner: it selects
// b points of the pool src (with reduced probabilities probs) on `ranks`
// in-process ranks, each holding its MakeStreamShard partition in blocks
// of dataset.BlockRowsFor its slice, as a TCP rank does, so Approx-FIRAL
// and Dist-FIRAL differ only by the rank count. src stays the caller's; SelectInProcess
// never closes it, and no read of it is in flight when SelectInProcess
// returns (a sweep schedules no read-ahead past its last block, and the
// solvers leave only between sweeps).
//
// At ranks ≤ 1 it runs firal.SelectApprox on the single shard, under the
// serial Collective, which polls ctx inside CG as well. At ranks ≥ 2 every
// rank runs Select under mpi.Run; o.Relax.OnIteration then runs on rank
// 0 only (the other ranks get a no-op hook, since the checkpoint gather
// is a collective) and Result.Eta is the η ROUND used. η tuning over
// o.EtaGrid is serial only: a grid at ranks ≥ 2 is an error. A failure
// returns its root cause: a rank's panic first, then a failed rank's own
// error before the ErrRankLost or peer read error its peers report. A
// failed pool read matches hessian.ErrPoolRead at every rank count.
func SelectInProcess(ctx context.Context, ranks int, labeled *hessian.Set, src dataset.PoolSource, probs *mat.Dense, b int, o firal.Options) (*firal.Result, error) {
	if ranks <= 1 {
		sh := MakeStreamShard(labeled, src, probs, 0, 1, 0)
		return firal.SelectApprox(ctx, firal.NewProblem(sh.Labeled, sh.PoolLocal), b, o)
	}
	if len(o.EtaGrid) > 0 {
		return nil, fmt.Errorf("distfiral: η grid tuning is serial only; got a %d-value grid at %d ranks", len(o.EtaGrid), ranks)
	}
	var res *firal.Result
	errs := make([]error, ranks)
	_, runErr := mpi.Run(ranks, func(c *mpi.Comm) {
		ro := o.Relax
		if c.Rank() != 0 && ro.OnIteration != nil {
			ro.OnIteration = func(*firal.RelaxCheckpoint) {}
		}
		sh := MakeStreamShard(labeled, src, probs, 0, ranks, c.Rank())
		sel, relax, round, err := Select(ctx, c, sh, b, o.Eta, ro, o.Exclude...)
		errs[c.Rank()] = err
		if err == nil && c.Rank() == 0 {
			eta := o.Eta
			if eta <= 0 {
				eta = sh.p.DefaultEta()
			}
			res = &firal.Result{Selected: sel, Eta: eta, Relax: relax, Round: round}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	// The root cause first: the peers of a failed rank report ErrRankLost
	// or errPeerRead.
	var peer error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, mpi.ErrRankLost) || errors.Is(err, errPeerRead):
			peer = cmp.Or(peer, err)
		default:
			return nil, err
		}
	}
	return res, peer
}
