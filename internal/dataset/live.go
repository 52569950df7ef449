package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
)

// LiveSource is the delta layer over PoolSource: a pool that grows while
// it is being read. Appends add whole segments (any PoolSource — a fresh
// shard file, an in-memory matrix) without re-packing the existing data;
// readers route across segments exactly as ShardSource routes across
// shard files. The segment list is published through an atomic pointer to
// an immutable snapshot, so concurrent ReadRows — the blocked solver
// sweeps — never take a lock and never observe a half-installed append.
//
// Visibility contract:
//
//   - NumRows and ReadRows reflect every Append completed before the call
//     (rows only grow; indices of existing rows never move).
//   - Append returns the count of completed appends (the generation).
//     A consumer that must pin a fixed n for one solve (a selection
//     round needs a stable simplex dimension) wraps the live source in
//     Subrange(live, 0, n): the view keeps serving exactly those rows
//     while later appends land.
//   - Append takes ownership of the segment; Close closes every segment.
type LiveSource struct {
	mu    sync.Mutex // serializes appenders; readers never take it
	state atomic.Pointer[liveState]
}

// liveState is one immutable snapshot of the segment list.
type liveState struct {
	segs   []PoolSource
	starts []int // global row index of each segment's first row
	rows   int
	d      int
	gen    int64
}

// NewLiveSource wraps base as the first segment of a growable pool,
// taking ownership of it.
func NewLiveSource(base PoolSource) *LiveSource {
	s := &LiveSource{}
	s.state.Store(&liveState{
		segs:   []PoolSource{base},
		starts: []int{0},
		rows:   base.NumRows(),
		d:      base.Dim(),
	})
	return s
}

// Append adds src's rows after the current last row and returns the new
// generation count. The segment must match the pool dimension; on success
// the LiveSource owns it (Close closes it). Open readers see the new rows
// on their next NumRows/ReadRows without reopening anything.
func (s *LiveSource) Append(src PoolSource) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.state.Load()
	if src.Dim() != cur.d {
		return cur.gen, fmt.Errorf("dataset: appending a %d-dimensional segment to a %d-dimensional pool", src.Dim(), cur.d)
	}
	next := &liveState{
		segs:   append(append([]PoolSource(nil), cur.segs...), src),
		starts: append(append([]int(nil), cur.starts...), cur.rows),
		rows:   cur.rows + src.NumRows(),
		d:      cur.d,
		gen:    cur.gen + 1,
	}
	s.state.Store(next)
	return next.gen, nil
}

// NumRows returns the current total row count.
func (s *LiveSource) NumRows() int { return s.state.Load().rows }

// Dim returns the feature dimension.
func (s *LiveSource) Dim() int { return s.state.Load().d }

// ReadRows copies rows [lo, hi) into dst, crossing segment boundaries as
// needed. The snapshot is loaded once, so a concurrent Append cannot
// shift rows mid-read.
func (s *LiveSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	st := s.state.Load()
	if lo < 0 || hi > st.rows || lo > hi {
		return fmt.Errorf("dataset: row window [%d, %d) out of range [0, %d)", lo, hi, st.rows)
	}
	if dst != nil && (dst.Rows != hi-lo || dst.Cols != st.d) {
		return fmt.Errorf("dataset: ReadRows destination is %d×%d, want %d×%d",
			dst.Rows, dst.Cols, hi-lo, st.d)
	}
	// Linear scan for the segment containing lo: segment counts stay tiny
	// and the sweep access pattern revisits the same segment block to
	// block (same rationale as ShardSource).
	si := 0
	for si+1 < len(st.segs) && st.starts[si+1] <= lo {
		si++
	}
	row := lo
	for row < hi {
		seg := st.segs[si]
		segLo := row - st.starts[si]
		segHi := min(seg.NumRows(), hi-st.starts[si])
		if err := seg.ReadRows(segLo, segHi, dst.RowSlice(row-lo, row-lo+segHi-segLo)); err != nil {
			// Wrap, don't replace: segment errors carry typed causes
			// (fs errors, ErrResidentPool from a gated source) that
			// callers match with errors.Is through this context.
			return fmt.Errorf("dataset: live segment %d (rows [%d, %d)): %w",
				si, st.starts[si], st.starts[si]+seg.NumRows(), err)
		}
		row += segHi - segLo
		si++
	}
	return nil
}

// Close closes every segment.
func (s *LiveSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	var first error
	for _, seg := range st.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.state.Store(&liveState{d: st.d, gen: st.gen})
	return first
}
