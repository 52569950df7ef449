package firal

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// Collective is the rank communication the RELAX and ROUND solvers run
// on — the § III-C message pattern of distributed Approx-FIRAL and
// nothing more: a broadcast of the probe block and of each ROUND winner,
// sum allreduces of the Σz blocks and the block matvec partials, scalar
// allreduces for the mirror-descent normalization, a maxloc argmax, and
// an allgather of the RELAX weights for checkpoints. One solver runs over
// every rank count; a single rank is the Collective whose operations
// are identities (see solo), and internal/distfiral adapts an *mpi.Comm.
//
// The Collective also decides how failure and cancellation are polled.
// A single rank checks them directly, inside the CG solves too. Ranks
// must leave the collective schedule at the same iteration, so a
// distributed implementation agrees on them once per iteration and hands
// the CG solves a context only a failed comm can stop.
type Collective interface {
	// Rank and Size place this rank in the group.
	Rank() int
	Size() int
	// Bcast overwrites buf on every rank with root's buf.
	Bcast(root int, buf []float64)
	// Allreduce replaces buf with its elementwise sum over ranks.
	Allreduce(buf []float64)
	// AllreduceScalar reduces x over ranks with op (mpi.Sum or mpi.Max).
	AllreduceScalar(x float64, op mpi.Op) float64
	// AllreduceMaxLoc returns the largest val over ranks with the rank
	// and loc that offered it; ties go to the lowest rank.
	AllreduceMaxLoc(val float64, loc int) (best float64, rank, bestLoc int)
	// Allgatherv concatenates every rank's local slice in rank order. It
	// serves RELAX checkpoints only: ROUND replicates its eigensolves.
	Allgatherv(local []float64) []float64
	// Cancelled is polled at the top of every solver iteration with the
	// rank's pool error (Pool.Err); a non-nil result aborts the solve on
	// every rank, with an error wrapping hessian.ErrPoolRead if any rank's
	// read failed.
	Cancelled(ctx context.Context, poolErr error) error
	// Err returns the rank's sticky comm error: the results of a
	// collective that ran after it was set are meaningless.
	Err() error
	// SolverContext is the context handed to the CG solves.
	SolverContext(ctx context.Context) context.Context
}

// solo is the single-rank Collective: every operation is the identity —
// no goroutines, no copies, no allocations — so the serial solvers are
// the distributed solver at p = 1 with the communication compiled down
// to nothing.
type solo struct{}

func (solo) Rank() int                                         { return 0 }
func (solo) Size() int                                         { return 1 }
func (solo) Bcast(int, []float64)                              {}
func (solo) Allreduce([]float64)                               {}
func (solo) AllreduceScalar(x float64, _ mpi.Op) float64       { return x }
func (solo) Allgatherv(local []float64) []float64              { return local }
func (solo) Err() error                                        { return nil }
func (solo) SolverContext(ctx context.Context) context.Context { return ctx }

func (solo) Cancelled(ctx context.Context, poolErr error) error { return cmp.Or(poolErr, ctx.Err()) }

func (solo) AllreduceMaxLoc(val float64, loc int) (float64, int, int) { return val, 0, loc }

// Group is the rank group a solve runs over: the collectives, plus where
// this rank's pool slice (the Problem's pool) sits in the global pool.
// Every global/local index mapping of the solvers goes through it.
type Group struct {
	Comm Collective
	// Offset is the global index of the first local pool point.
	Offset int
	// Total is the global pool size n.
	Total int
}

// single is the one-rank group owning p's whole pool.
func single(p *Problem) Group { return Group{Comm: solo{}, Total: p.N()} }

// local slices a global per-point vector down to this rank's window of n
// local points.
func (g Group) local(v []float64, n int) []float64 { return v[g.Offset : g.Offset+n] }

// exclude marks the global pool indices in idx that fall in this rank's
// window; the rest are ignored.
func (g Group) exclude(selected []bool, idx []int) {
	for _, gi := range idx {
		if li := gi - g.Offset; li >= 0 && li < len(selected) {
			selected[li] = true
		}
	}
}

// sigmaBlocks computes the global diagonal blocks of Σz = Ho + Hz into
// dst: the local pool Gram, summed over ranks in one allreduce of c·d²
// floats, plus the replicated labeled blocks lab. dst is nil or the
// result of an earlier call — its blocks share one contiguous slab, which
// is what the single allreduce needs. The local work is timed into phase
// of ph (nil: untimed). A non-finite entry returns an error wrapping
// ErrNonFinite; the blocks are replicated by then, so every rank returns
// it at the same point without another collective.
func (g Group) sigmaBlocks(ws *mat.Workspace, p *Problem, dst []*mat.Dense, z []float64, lab []*mat.Dense, ph *timing.Phases, phase string) ([]*mat.Dense, error) {
	c, d := p.C(), p.D()
	stop := ph.Start(phase)
	if dst == nil {
		slab := make([]float64, c*d*d)
		dst = make([]*mat.Dense, c)
		for k := range dst {
			dst[k] = &mat.Dense{Rows: d, Cols: d, Stride: d, Data: slab[k*d*d : (k+1)*d*d]}
		}
	}
	hessian.BlockDiagSumInto(ws, p.Pool, dst, z)
	stop()
	g.Comm.Allreduce(dst[0].Data[:c*d*d])
	stop = ph.Start(phase)
	defer stop()
	for k := range dst {
		dst[k].AddScaled(1, lab[k])
		for _, v := range dst[k].Data[:d*d] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, fmt.Errorf("%w: Σz block %d", ErrNonFinite, k)
			}
		}
	}
	return dst, nil
}
