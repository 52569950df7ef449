// Package parallel provides small helpers for data-parallel loops over the
// local compute device. In the paper the device is a GPU driven by CuPy
// kernels; here the device is the set of host cores, and every batched
// kernel in internal/mat and internal/firal funnels through these helpers so
// the degree of parallelism is controlled in one place.
//
// # Worker-pool contract
//
// Loop bodies execute on a persistent pool of worker goroutines (see
// pool.go) plus the calling goroutine itself. The contract for hot paths:
//
//   - Workers live for the life of the process (parked on a channel when
//     idle) and are shared by every caller; the pool is resized by
//     SetMaxWorkers and grows lazily up to the target.
//   - A steady-state For/ForChunk call forks no goroutines and
//     performs no allocations of its own. The function value passed in is
//     the caller's responsibility: a closure literal that captures loop
//     variables is heap-allocated at every call site, so allocation-free
//     kernels must pass a func stored in reusable (pooled) state instead
//     of capturing ad hoc — see the kernel task pools in internal/mat.
//   - ForChunk bodies must not rely on chunks running concurrently with
//     one another (the pool may run them sequentially on the caller).
//   - Loop bodies must not hold locks that the code launching the loop
//     also holds, as the caller participates in its own loop.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// minWork is the smallest amount of per-worker work worth engaging a
// pool worker for: the worker count is capped at n/minWork, so workers
// receive at least minWork iterations (the final chunk may fall slightly
// short of the floor from ceil-division rounding), and loops smaller
// than 2·minWork run serially rather than waking a worker for a sliver
// of work.
const minWork = 256

// maxWorkers overrides the worker count; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// SetMaxWorkers overrides the process-wide worker count used by ForChunk
// and ForChunkMin, and resizes the persistent pool to match. n <= 0
// restores the default (GOMAXPROCS). It returns the previous value.
//
// The setting is process-wide and belongs to process entry points
// (package main) and tests; concurrent callers don't race, but the last
// restore wins. There is no per-session cap: every session in a process
// shares its workers.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	prev := int(maxWorkers.Swap(int64(n)))
	defaultPool.resize()
	return prev
}

// Workers reports the number of workers parallel loops will use and the
// size the persistent pool grows to: the SetMaxWorkers override, or
// GOMAXPROCS.
func Workers() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// chunkWorkers returns the number of workers a chunked loop will engage
// for n iterations with a per-worker floor of minPer: at most Workers(),
// and at most n/minPer so that every worker gets at least minPer
// iterations of real work.
func chunkWorkers(n, minPer int) int {
	w := Workers()
	if lim := n / minPer; w > lim {
		w = lim
	}
	return w
}

// Serial reports whether ForChunk(n, …) would run its body on the calling
// goroutine. Hot kernels use it to skip building the chunk closure — and
// its per-call allocation — when the loop would be serial anyway.
func Serial(n int) bool { return chunkWorkers(n, minWork) <= 1 }

// SerialMin is Serial for ForChunkMin's caller-chosen floor.
func SerialMin(n, minPer int) bool {
	if minPer < 1 {
		minPer = 1
	}
	return chunkWorkers(n, minPer) <= 1
}

// ForChunk splits [0, n) into at most Workers() contiguous chunks of at
// least minWork iterations each and runs fn(lo, hi) on each chunk,
// possibly concurrently. fn must be safe to call concurrently for
// disjoint ranges, and is never called with an empty range.
func ForChunk(n int, fn func(lo, hi int)) {
	forChunk(n, minWork, fn)
}

// ForChunkMin is ForChunk with a caller-chosen per-worker iteration floor,
// for loops whose per-iteration cost is far above the scalar work minWork
// is calibrated for (e.g. a GEMM output row costing n·k flops).
func ForChunkMin(n, minPer int, fn func(lo, hi int)) {
	if minPer < 1 {
		minPer = 1
	}
	forChunk(n, minPer, fn)
}

func forChunk(n, minPer int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := chunkWorkers(n, minPer)
	if w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	// Ceil division can produce fewer chunks than workers when n is just
	// over a chunk boundary (e.g. n = 2·chunk + 1 at w = 4); clamp so no
	// worker is woken for a guaranteed-empty range.
	if nchunks := (n + chunk - 1) / chunk; w > nchunks {
		w = nchunks
	}
	j := chunkJobPool.Get()
	j.fn, j.n, j.chunk = fn, n, chunk
	j.next.Store(0)
	// Participants = claimed helpers + the caller. exits starts at the
	// upper bound w and is corrected after claiming; it stays positive
	// throughout because at most h+1 participants can decrement it.
	j.exits.Store(int64(w))
	h := defaultPool.claim(j, w-1)
	if h+1 < w {
		j.exits.Add(int64(h + 1 - w))
	}
	j.run()
	if j.exits.Add(-1) > 0 {
		<-j.done
	}
	j.fn = nil
	chunkJobPool.Put(j)
}
