package dataset

import (
	"fmt"

	"repro/internal/mat"
)

// This file defines the PoolSource abstraction: the paper's headline claim
// is selection from pools far larger than a memory-resident dense matrix
// comfortably allows, so the solver hot paths (the Lemma-2 matvec, the
// gradient estimator, the Gram accumulation, and the ROUND rescoring pass)
// consume the pool in fixed-size row blocks instead of assuming one
// resident n×d matrix. A PoolSource serves those blocks; implementations
// range from a wrapped in-memory matrix (MatrixSource) through
// memory-mapped float32 shard files (ShardSource) to CSV files
// (CSVSource).
//
// Contract:
//
//   - Rows are dense feature vectors of a fixed dimension Dim(); the pool
//     has NumRows() of them, globally indexed from 0.
//   - ReadRows(lo, hi, dst) copies rows [lo, hi) into the (hi−lo)×Dim()
//     matrix dst as float64. Implementations must support arbitrary
//     in-range [lo, hi) windows, though consumers overwhelmingly sweep
//     forward in fixed-size blocks.
//   - Sources must surface data errors (missing files, malformed rows,
//     shape mismatches) at open/validation time. After a successful open,
//     ReadRows on an in-range window is expected to succeed. A failure
//     must come back as an error, never a panic: a hessian.Stream keeps
//     it (hessian.ErrPoolRead), and the solvers fail the selection at
//     their next per-iteration poll.
//   - ReadRows must be safe for concurrent use by multiple goroutines
//     (each with its own dst); the simulated MPI ranks of
//     internal/distfiral share one source through Subrange views.
//   - Close releases file handles and mappings. In-memory sources are
//     no-ops. Reading after Close is undefined.
type PoolSource interface {
	// NumRows returns the pool size n.
	NumRows() int
	// Dim returns the feature dimension d.
	Dim() int
	// ReadRows copies rows [lo, hi) into dst, a (hi−lo)×Dim() matrix.
	ReadRows(lo, hi int, dst *mat.Dense) error
	// Close releases any underlying resources.
	Close() error
}

// Resident is the optional zero-copy fast path: sources whose rows
// already sit in memory as one compact row-major float64 slab expose them
// directly, so blocked consumers wrap the storage in a view instead of
// copying every block through scratch. MatrixSource implements it (for
// compact matrices); Subrange preserves it.
type Resident interface {
	// ResidentRows returns the backing storage of rows [lo, hi): exactly
	// (hi−lo)·Dim() float64s, row-major, compact. The slice aliases the
	// source and must be treated as read-only.
	ResidentRows(lo, hi int) []float64
}

// DefaultBlockRows is the row-block size of large pools (BlockRowsFor)
// and the window of the passes that do not sweep a pool in parallel
// (hessian.PoolProbs, PackShard). It balances scratch footprint (a block
// of d=64 features is 2 MiB) against per-block kernel dispatch overhead.
const DefaultBlockRows = 4096

// BlockRowsFor returns the row-block size of a sweep over a pool of n
// rows, the one rule every blocked consumer applies: DefaultBlockRows for
// n ≥ 65,536, otherwise the largest power of two ≤ n/16, but at least 256.
// So a pool of 4,096 rows or more has at least 16 blocks for the sweep's
// lanes (parallel.ForBlocks), a pool of up to 256 rows is one block, and
// the size changes only where n crosses 16·2ᵏ. It depends on n alone,
// never on the worker count. It fixes bits: each block's GEMM picks its
// summation order from the block's row count, and each block's partial
// folds into the result in turn. A sharded pool applies it to each rank's
// slice.
func BlockRowsFor(n int) int {
	if n >= 1<<16 {
		return DefaultBlockRows
	}
	rows := 256
	for rows*2 <= n/16 {
		rows *= 2
	}
	return rows
}

// checkWindow validates a [lo, hi) row window against a source's shape.
func checkWindow(src PoolSource, lo, hi int, dst *mat.Dense) error {
	if lo < 0 || hi > src.NumRows() || lo > hi {
		return fmt.Errorf("dataset: row window [%d, %d) out of range [0, %d)", lo, hi, src.NumRows())
	}
	if dst != nil && (dst.Rows != hi-lo || dst.Cols != src.Dim()) {
		return fmt.Errorf("dataset: ReadRows destination is %d×%d, want %d×%d",
			dst.Rows, dst.Cols, hi-lo, src.Dim())
	}
	return nil
}

// MatrixSource serves an in-memory matrix as a PoolSource. It is the
// bridge between the resident datasets (Generate, the learner pool) and
// the blocked solver kernels: compact matrices are exposed zero-copy
// through the Resident interface.
type MatrixSource struct {
	x *mat.Dense
}

// NewMatrixSource wraps x (not copied, so the caller must not mutate rows
// while the source is in use). A non-compact view is cloned to compact
// storage so ResidentRows always holds.
func NewMatrixSource(x *mat.Dense) *MatrixSource {
	if x.Stride != x.Cols {
		x = x.Clone()
	}
	return &MatrixSource{x: x}
}

// NumRows returns the pool size.
func (s *MatrixSource) NumRows() int { return s.x.Rows }

// Dim returns the feature dimension.
func (s *MatrixSource) Dim() int { return s.x.Cols }

// ReadRows copies rows [lo, hi) into dst.
func (s *MatrixSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(s, lo, hi, dst); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		copy(dst.Row(i-lo), s.x.Row(i))
	}
	return nil
}

// ResidentRows exposes the backing storage zero-copy (the constructor
// guarantees compact storage).
func (s *MatrixSource) ResidentRows(lo, hi int) []float64 {
	return s.x.Data[lo*s.x.Cols : hi*s.x.Cols]
}

// Close is a no-op.
func (s *MatrixSource) Close() error { return nil }

// subrange is a row-window view of another source, used by the
// distributed sharding to hand each rank its contiguous pool partition
// without materializing it.
type subrange struct {
	src    PoolSource
	lo, hi int
}

// Subrange returns a PoolSource view of rows [lo, hi) of src. The view
// shares src (Close is a no-op; close the parent instead) and preserves
// the Resident fast path when src supports it. It always wraps, even for
// the whole of src, so a view over a growable pool (LiveSource) stays
// pinned to its rows while appends land.
func Subrange(src PoolSource, lo, hi int) PoolSource {
	if lo < 0 || hi > src.NumRows() || lo > hi {
		panic(fmt.Sprintf("dataset: Subrange [%d, %d) out of range [0, %d)", lo, hi, src.NumRows()))
	}
	if res, ok := src.(Resident); ok {
		return &residentSubrange{subrange{src: src, lo: lo, hi: hi}, res}
	}
	return &subrange{src: src, lo: lo, hi: hi}
}

func (s *subrange) NumRows() int { return s.hi - s.lo }
func (s *subrange) Dim() int     { return s.src.Dim() }
func (s *subrange) Close() error { return nil }

func (s *subrange) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(s, lo, hi, dst); err != nil {
		return err
	}
	return s.src.ReadRows(s.lo+lo, s.lo+hi, dst)
}

// residentSubrange adds the zero-copy path to a subrange of a Resident
// source.
type residentSubrange struct {
	subrange
	res Resident
}

func (s *residentSubrange) ResidentRows(lo, hi int) []float64 {
	return s.res.ResidentRows(s.lo+lo, s.lo+hi)
}
