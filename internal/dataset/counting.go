package dataset

import (
	"sync/atomic"

	"repro/internal/mat"
)

// CountingSource wraps a PoolSource and counts its decode traffic: the
// number of ReadRows calls and the total rows served. It exists to make
// sweep-cost claims testable — the streamed-RELAX contract is "one full
// pool decode per CG iteration, not one per probe column per iteration",
// and tests (and cmd/firal-bench) assert it by wrapping the source and
// dividing RowsRead by NumRows.
//
// Optional-interface policy — each decision is explicit, because a
// transparent wrapper that silently narrows a source changes consumer
// behaviour (Stream's fast paths):
//
//   - Resident is deliberately NOT forwarded even when the wrapped
//     source implements it: resident blocks bypass ReadRows entirely,
//     so forwarding it would make every count read zero. Wrapping
//     forces the decode path, which is exactly what a decode-counting
//     test wants to measure.
//   - BlockLender is likewise NOT forwarded: lent blocks would bypass
//     the counters the same way. To count a prefetched sweep, wrap the
//     CountingSource in WithPrefetch (counting below the prefetcher) —
//     every asynchronous read still lands on ReadRows and is counted.
//
// Counters are atomic, matching the PoolSource contract that ReadRows
// tolerates concurrent callers.
type CountingSource struct {
	src   PoolSource
	reads atomic.Int64
	rows  atomic.Int64
}

// NewCountingSource wraps src. Close closes the wrapped source.
func NewCountingSource(src PoolSource) *CountingSource {
	return &CountingSource{src: src}
}

// NumRows returns the pool size.
func (s *CountingSource) NumRows() int { return s.src.NumRows() }

// Dim returns the feature dimension.
func (s *CountingSource) Dim() int { return s.src.Dim() }

// ReadRows forwards to the wrapped source, counting the call and the rows
// served (failed reads are counted too — the consumer paid for the
// attempt).
func (s *CountingSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	s.reads.Add(1)
	s.rows.Add(int64(hi - lo))
	return s.src.ReadRows(lo, hi, dst)
}

// Close closes the wrapped source.
func (s *CountingSource) Close() error { return s.src.Close() }

// Reads returns the number of ReadRows calls since construction/Reset.
func (s *CountingSource) Reads() int64 { return s.reads.Load() }

// RowsRead returns the total rows served since construction/Reset.
func (s *CountingSource) RowsRead() int64 { return s.rows.Load() }

// Sweeps returns RowsRead expressed in full passes over the pool. Blocked
// consumers sweep the pool end to end, so after k full sweeps this is
// exactly k; a fractional value means a partial or windowed access
// pattern.
func (s *CountingSource) Sweeps() float64 {
	n := s.src.NumRows()
	if n == 0 {
		return 0
	}
	return float64(s.rows.Load()) / float64(n)
}

// Reset zeroes both counters.
func (s *CountingSource) Reset() {
	s.reads.Store(0)
	s.rows.Store(0)
}
