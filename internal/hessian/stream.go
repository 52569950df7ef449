package hessian

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Pool is the solver-facing view of a weighted point set. Stream is its
// one implementation; a resident Set serves it through an embedded Stream
// over its matrix. It only gives access to the data; the kernels over it
// — the Lemma-2 matvec (MatVecBlockWS), the Hutchinson gradient
// accumulation (QuadAccumBlockWS), the Eq. 14 Gram blocks
// (BlockDiagSumInto), and the ROUND rescoring pass in internal/firal —
// visit the pool in contiguous row blocks obtained from Block/PutBlock,
// so an out-of-core pool (mmap'd float32 shards, CSV) flows through the
// same Workspace/worker-pool machinery as a resident one.
//
// Probabilities stay resident: the n×c probability matrix is a factor d/c
// smaller than the features and the solvers index it per row (the mirror
// step, the argmax winner, the per-class γ weights), so only the O(n·d)
// feature side streams.
type Pool interface {
	// N, D, C, Ed give the pool shape (points, features, classes, d·c).
	N() int
	D() int
	C() int
	Ed() int
	// Probs returns the resident n×c probability matrix.
	Probs() *mat.Dense
	// Row returns feature row i, using buf (length ≥ D()) as scratch when
	// the row must be fetched; resident pools return a view and ignore
	// buf. The result is only valid until the next Row call with the same
	// buf.
	Row(i int, buf []float64) []float64
	// BlockRows is the row-block granularity Block serves.
	BlockRows() int
	// Block returns feature rows [lo, hi) as a matrix, drawing any header
	// or copy scratch from ws; release it with PutBlock. Resident pools
	// return a zero-copy view. A failed read yields zeros (see Err).
	Block(ws *mat.Workspace, lo, hi int) *mat.Dense
	// PutBlock releases a matrix obtained from Block.
	PutBlock(ws *mat.Workspace, b *mat.Dense)
	// Streamed reports whether the rows must be decoded: false for a
	// resident pool, whose Block serves views.
	Streamed() bool
	// Decode decodes rows [lo, hi) into dst, a (hi−lo)×D() matrix,
	// straight from the source, never through a read-ahead: the read
	// of a sweep lane that decodes its own blocks (LaneRows). A failed
	// read yields zeros (see Err).
	Decode(lo, hi int, dst *mat.Dense)
	// Err returns the first read error, wrapping ErrPoolRead, or nil.
	// The solvers poll it once per iteration.
	Err() error
}

// ErrPoolRead marks a failed read of a streamed pool's rows.
var ErrPoolRead = errors.New("hessian: pool read failed")

// Stream is the block-streaming Pool: features come from a
// dataset.PoolSource block by block while the probability rows stay
// resident. It is how selection scales past resident pools — an mmap'd
// float32 shard set or a CSV file feeds the same solver kernels as an
// in-memory matrix, with scratch bounded by one row block per lane —
// and, over a dataset.MatrixSource, how a resident Set serves its rows
// zero-copy. A one-lane sweep takes each block whole through Block,
// from a lending source's read-ahead when there is one; the lanes of a
// multi-lane sweep decode their own blocks through Decode, in L2-sized
// windows (LaneRows), and never borrow.
//
// A Stream is read-only after construction and may be shared by
// goroutines that each bring their own Workspace, provided the source's
// ReadRows is concurrency-safe (all dataset sources are); its read error
// is set at most once.
type Stream struct {
	src       dataset.PoolSource
	res       dataset.Resident    // non-nil: zero-copy fast path
	lend      dataset.BlockLender // non-nil: prefetching zero-copy handoff
	h         *mat.Dense
	blockRows int

	err atomic.Pointer[error] // first read error, wrapping ErrPoolRead
}

// NewStream builds a streaming pool over src with resident reduced
// probabilities probs (n×c, one row per source row — see ReduceProbs).
// blockRows ≤ 0 selects dataset.BlockRowsFor(src.NumRows()).
func NewStream(src dataset.PoolSource, probs *mat.Dense, blockRows int) *Stream {
	if probs.Rows != src.NumRows() {
		panic(fmt.Sprintf("hessian: stream has %d probability rows for %d source rows",
			probs.Rows, src.NumRows()))
	}
	if blockRows <= 0 {
		blockRows = dataset.BlockRowsFor(src.NumRows())
	}
	res, _ := src.(dataset.Resident)
	lend, _ := src.(dataset.BlockLender)
	return &Stream{src: src, res: res, lend: lend, h: probs, blockRows: blockRows}
}

// Source returns the underlying PoolSource.
func (st *Stream) Source() dataset.PoolSource { return st.src }

// N returns the number of points.
func (st *Stream) N() int { return st.src.NumRows() }

// D returns the feature dimension.
func (st *Stream) D() int { return st.src.Dim() }

// C returns the number of classes.
func (st *Stream) C() int { return st.h.Cols }

// Ed returns the Fisher dimension d·c.
func (st *Stream) Ed() int { return st.D() * st.C() }

// Probs returns the resident probability matrix.
func (st *Stream) Probs() *mat.Dense { return st.h }

// BlockRows returns the configured block granularity.
func (st *Stream) BlockRows() int { return st.blockRows }

// Err returns the first read error, wrapping ErrPoolRead, or nil.
func (st *Stream) Err() error {
	if e := st.err.Load(); e != nil {
		return *e
	}
	return nil
}

// fail records a read error of rows [lo, hi) unless one is already kept.
func (st *Stream) fail(lo, hi int, err error) {
	err = fmt.Errorf("%w: rows [%d, %d): %w", ErrPoolRead, lo, hi, err)
	st.err.CompareAndSwap(nil, &err)
}

// Streamed reports whether the rows are decoded from the source rather
// than served as views.
func (st *Stream) Streamed() bool { return st.res == nil }

// Decode reads rows [lo, hi) into dst with the source's ReadRows, which
// for a prefetching source is a demand read that schedules nothing. A
// failed read is recorded (see Err) and yields zeros.
func (st *Stream) Decode(lo, hi int, dst *mat.Dense) {
	if err := st.src.ReadRows(lo, hi, dst); err != nil {
		st.fail(lo, hi, err)
		dst.Zero()
	}
}

// Row fetches feature row i into buf (resident sources return a view). A
// failed read is recorded (see Err) and yields zeros.
func (st *Stream) Row(i int, buf []float64) []float64 {
	if st.res != nil {
		return st.res.ResidentRows(i, i+1)
	}
	d := st.D()
	if len(buf) < d {
		buf = make([]float64, d)
	}
	st.Decode(i, i+1, &mat.Dense{Rows: 1, Cols: d, Stride: d, Data: buf[:d]})
	return buf[:d]
}

// Block returns rows [lo, hi): a zero-copy view for resident sources, a
// borrowed prefetch buffer for lending sources (dataset.BlockLender —
// the async read-ahead path of one-lane sweeps, where the block's decode
// already ran under the previous block's kernels), otherwise decoded
// into workspace scratch. A failed read is recorded (see Err) and yields
// a zero block.
func (st *Stream) Block(ws *mat.Workspace, lo, hi int) *mat.Dense {
	if st.res != nil {
		return ws.View(st.res.ResidentRows(lo, hi), hi-lo, st.D())
	}
	if st.lend != nil {
		b, err := st.lend.LendBlock(lo, hi)
		if err != nil {
			st.fail(lo, hi, err)
			b = mat.NewDense(hi-lo, st.D()) // not lent: ReturnBlock ignores it
		}
		return b
	}
	b := ws.Matrix(hi-lo, st.D())
	st.Decode(lo, hi, b)
	return b
}

// PutBlock releases a block obtained from Block. For a lending source
// this is what frees a prefetch buffer for the next read-ahead, so a
// one-lane sweep keeps the lender's ordered-lend contract
// (dataset.BlockLender): it requests blocks in ascending order and
// releases block k before it requests block k+1. Sweeps on more than one
// lane never borrow: their lanes decode their own blocks (LaneRows).
func (st *Stream) PutBlock(ws *mat.Workspace, b *mat.Dense) {
	if st.res != nil {
		ws.PutView(b)
	} else if st.lend != nil {
		st.lend.ReturnBlock(b)
	} else {
		ws.PutMatrix(b)
	}
}
