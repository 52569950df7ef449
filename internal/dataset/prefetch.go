package dataset

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/mat"
)

// This file adds the asynchronous read-ahead prefetch layer to the
// streaming path. A one-lane sweep of the blocked solver kernels
// requests a pool's blocks strictly forward (ARCHITECTURE.md, Contract
// 3), which makes the next read perfectly predictable: while the caller
// chews block k, block k+1 can already be decoding on another
// goroutine, on a core the sweep leaves free. PrefetchSource exploits
// exactly that — it overlaps the mmap decode latency of a ShardSource
// (or the segment routing of a LiveSource) with the Fisher/Gram
// kernels, without changing a single byte of what the consumer sees:
// the blocks served are the wrapped source's blocks, so selections stay
// bit-for-bit identical to the synchronous path. A sweep on more than
// one lane keeps every core busy, so its lanes decode their own blocks
// through ReadRows instead (hessian.LaneRows).
//
// Two access styles are served:
//
//   - ReadRows keeps the full PoolSource contract (safe for concurrent
//     callers, copies into the caller's dst) so a PrefetchSource can
//     stand anywhere a PoolSource can. It is a demand read straight
//     from the wrapped source: it neither uses nor schedules the
//     read-ahead, and takes no lock, so lanes reading at once never
//     wait for one another.
//   - LendBlock/ReturnBlock (the BlockLender interface) is the zero-copy
//     read-ahead path hessian.Stream uses on one-lane sweeps: the caller
//     borrows the prefetch buffer itself for the duration of one block's
//     kernels, skipping the copy into workspace scratch entirely.

// BlockLender is the optional zero-copy handoff interface a prefetching
// source exposes: LendBlock returns a source-owned buffer holding rows
// [lo, hi) that stays valid until the matching ReturnBlock. Ownership
// rules:
//
//   - A lent block is read-only and owned by the caller until returned;
//     returning it and continuing to read it is a bug (the buffer is
//     immediately reused for the next asynchronous read).
//   - Lends come in ascending order and one is out at a time: the
//     one-lane sweep that lends lends, computes and returns block k
//     before it lends block k+1, so the lender keeps two buffers, the
//     lent one and the read-ahead of the next.
//
// hessian.Stream detects the interface and routes Block/PutBlock
// through it, so every blocked consumer on one lane — the Lemma-2
// matvec, the gradient accumulation, the Gram blocks, the ROUND rescore,
// block-CG's per-iteration decode — overlaps I/O with compute without
// changing its own code.
type BlockLender interface {
	// LendBlock returns rows [lo, hi) in a lender-owned buffer, valid
	// until ReturnBlock.
	LendBlock(lo, hi int) (*mat.Dense, error)
	// ReturnBlock gives a lent block back for reuse; any other block is
	// ignored.
	ReturnBlock(b *mat.Dense)
}

// pfBlock is one pooled prefetch buffer: the float64 storage, a reusable
// Dense header over it, and the window + error of the read that filled
// it. While a read is in flight the block is owned by the reader
// goroutine; afterwards it travels back through the 1-slot result
// channel. run is the goroutine body bound once at construction — `go
// b.run()` spawns without the per-call closure allocation that `go
// p.fill(b)` would cost, keeping the warm sweep at 0 allocs/op.
type pfBlock struct {
	m      mat.Dense
	buf    []float64
	lo, hi int
	err    error
	run    func()
}

// prep points the block's header at rows [lo, hi) of a d-column pool,
// growing the backing storage if the window outgrew it (only when the
// consumer's block size grows — amortized, never on the warm path).
func (b *pfBlock) prep(lo, hi, d int) {
	want := (hi - lo) * d
	if cap(b.buf) < want {
		b.buf = make([]float64, want)
	}
	b.lo, b.hi, b.err = lo, hi, nil
	b.m = mat.Dense{Rows: hi - lo, Cols: d, Stride: d, Data: b.buf[:want]}
}

// PrefetchSource wraps a PoolSource with asynchronous block read-ahead.
// After lending a block of [lo, hi) it starts decoding the next
// same-sized window [hi, hi+(hi−lo)) into an idle buffer on a dedicated
// reader goroutine, so the read-ahead follows each live request's size;
// when the consumer asks for exactly that window — the blocked sweep
// pattern — the decode has already happened under the previous block's
// compute and the request is a channel receive. A mismatched lend drains
// the speculative result and reads synchronously, so arbitrary access
// stays correct, just unaccelerated.
//
// Concurrency: ReadRows keeps the PoolSource contract as a pass-through
// to the wrapped source (concurrent callers are as safe as there, and
// never serialize here). LendBlock/ReturnBlock follow the BlockLender
// ordered-lend contract under a mutex: one block out at a time, held in
// one of the source's two buffers while the other takes the read-ahead,
// so a warm sweep allocates nothing. Lends outside the contract stay
// correct: a lend that finds no buffer idle makes one, and an
// out-of-order lend misses the read-ahead and reads synchronously.
//
// Lifecycle: the in-flight read is a single short-lived goroutine per
// block whose only obligation is a buffered-channel send, so an
// abandoned PrefetchSource leaks nothing. Close drains any in-flight
// read deterministically and closes the wrapped source (share-safe
// wrappers like Subrange make that a no-op chain). Cancelling the
// construction context stops the speculation, not the data: no new
// read-ahead is scheduled (an already in-flight read finishes and is
// served or drained — never torn mid-decode), while demand reads keep
// succeeding synchronously. Cancellation must not surface as a read
// error, because a read error fails the selection where a cancelled one
// must end cancelled: the solvers exit a cancelled sweep at their own
// per-iteration ctx polls (the ctxpoll contract), and the prefetch layer
// just stops working ahead of a sweep that is about to stop.
type PrefetchSource struct {
	src PoolSource
	ctx context.Context

	mu       sync.Mutex
	closed   bool
	inflight bool // a result is owed on res
	pendLo   int  // window of the in-flight read, valid while inflight
	pendHi   int
	res      chan *pfBlock // 1-slot handoff from the reader goroutine
	free     []*pfBlock    // idle buffers
	lent     []*pfBlock    // blocks currently borrowed via LendBlock
	hits     int64         // block requests served from a completed prefetch
	misses   int64         // block requests read synchronously
}

// compile-time interface checks: the prefetch layer must stand anywhere
// a PoolSource can and expose the zero-copy lender fast path.
var (
	_ PoolSource  = (*PrefetchSource)(nil)
	_ BlockLender = (*PrefetchSource)(nil)
)

// NewPrefetchSource wraps src with read-ahead, which follows the size
// of each lend. ctx gates only the speculation: once ctx is cancelled no
// further read-ahead is scheduled, while demand reads continue
// synchronously (nil means no cancellation). The PrefetchSource owns
// src: Close closes it.
//
// Most callers want WithPrefetch, which skips wrapping when read-ahead
// cannot help.
func NewPrefetchSource(ctx context.Context, src PoolSource) *PrefetchSource {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &PrefetchSource{
		src:  src,
		ctx:  ctx,
		res:  make(chan *pfBlock, 1),
		free: make([]*pfBlock, 0, 2),
		lent: make([]*pfBlock, 0, 2),
	}
	for i := 0; i < 2; i++ {
		p.free = append(p.free, p.newBlock())
	}
	return p
}

// newBlock builds a buffer with its reader body pre-bound (see pfBlock).
func (p *PrefetchSource) newBlock() *pfBlock {
	b := &pfBlock{}
	b.run = func() { p.fill(b) }
	return b
}

// WithPrefetch wraps src with asynchronous block read-ahead when that
// can actually overlap anything, and returns src unchanged otherwise:
// a Resident source serves blocks zero-copy with no decode to hide, and
// a pool of at most one block has no "next block" to read ahead. This is
// the composition hook the streaming entry points use — wrap the
// outermost view (after Subrange pinning), then hand the result to
// hessian.NewStream:
//
//	src := dataset.WithPrefetch(ctx, dataset.Subrange(live, 0, n), blockRows)
//	pool := hessian.NewStream(src, probs, blockRows)
//
// Pass the same blockRows to both, so that the pool is wrapped only when
// its sweeps have more than one block; ≤ 0 selects
// BlockRowsFor(src.NumRows()) in both.
func WithPrefetch(ctx context.Context, src PoolSource, blockRows int) PoolSource {
	if blockRows <= 0 {
		blockRows = BlockRowsFor(src.NumRows())
	}
	if _, resident := src.(Resident); resident {
		return src
	}
	if src.NumRows() <= blockRows {
		return src
	}
	return NewPrefetchSource(ctx, src)
}

// NumRows returns the wrapped source's current row count.
func (p *PrefetchSource) NumRows() int { return p.src.NumRows() }

// Dim returns the feature dimension.
func (p *PrefetchSource) Dim() int { return p.src.Dim() }

// Stats reports how many lends were served from a completed prefetch
// (hits) versus read synchronously (misses); ReadRows counts as neither.
// Test and benchmark diagnostics: a one-lane sweep of a B-block pool
// scores B−1 hits and one miss.
func (p *PrefetchSource) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// fill is the reader goroutine: decode the block's window from the
// wrapped source, then hand the block off through the 1-slot result
// channel. The send is buffered and at most one read is ever in flight,
// so the goroutine always terminates promptly — even if the consumer
// abandoned the source, cancelled, or closed it.
func (p *PrefetchSource) fill(b *pfBlock) {
	b.err = p.src.ReadRows(b.lo, b.hi, &b.m)
	p.res <- b
}

// takeFree pops an idle buffer, or makes one when every buffer is lent
// or in flight, which only a caller outside the one-out lend contract
// brings about; the new buffer stays in the pool.
func (p *PrefetchSource) takeFree() *pfBlock {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return p.newBlock()
}

// drainLocked absorbs the in-flight read, recycling its buffer. Called
// with p.mu held; blocks until the reader goroutine finishes its decode
// (an in-flight read is never torn, matching the PoolSource rule that
// in-range reads on an open source are expected to succeed).
func (p *PrefetchSource) drainLocked() {
	if !p.inflight {
		return
	}
	b := <-p.res
	p.inflight = false
	p.free = append(p.free[:len(p.free)], b)
}

// scheduleLocked starts the read-ahead of the window following [lo, hi)
// — same size, clamped to the pool — if there is anything left to read.
// Called with p.mu held.
func (p *PrefetchSource) scheduleLocked(lo, hi int) {
	n := p.src.NumRows()
	if hi >= n || p.closed || p.ctx.Err() != nil {
		return
	}
	next := min(hi+(hi-lo), n)
	b := p.takeFree()
	b.prep(hi, next, p.src.Dim())
	p.inflight, p.pendLo, p.pendHi = true, hi, next
	go b.run()
}

// errLocked wraps a failed read with the request window; the wrapped
// source's own context (shard path, live segment) rides the %w chain
// below it.
func (p *PrefetchSource) errLocked(lo, hi int, err error) error {
	return fmt.Errorf("dataset: prefetch rows [%d, %d): %w", lo, hi, err)
}

// lendLocked is the block engine behind LendBlock: serve [lo, hi) from
// the completed read-ahead when it matches, read
// synchronously otherwise, and in either case start the next window's
// read-ahead before handing the block to the caller. Called with p.mu
// held; returns a block owned by the caller (tracked in p.lent).
//
//firal:hotpath
func (p *PrefetchSource) lendLocked(lo, hi int) (*pfBlock, error) {
	if p.closed {
		return nil, p.errLocked(lo, hi, errClosed)
	}
	if p.inflight && p.pendLo == lo && p.pendHi == hi {
		b := <-p.res
		p.inflight = false
		if b.err != nil {
			err := b.err
			p.free = append(p.free[:len(p.free)], b)
			return nil, p.errLocked(lo, hi, err)
		}
		p.hits++
		p.scheduleLocked(lo, hi)
		p.lent = append(p.lent[:len(p.lent)], b)
		return b, nil
	}
	// Miss: absorb whatever speculative read is in flight (its window is
	// not the one the consumer wants), decode synchronously, and restart
	// the pipeline from the requested position.
	p.drainLocked()
	b := p.takeFree()
	b.prep(lo, hi, p.src.Dim())
	if err := p.src.ReadRows(lo, hi, &b.m); err != nil {
		p.free = append(p.free[:len(p.free)], b)
		return nil, p.errLocked(lo, hi, err)
	}
	p.misses++
	p.scheduleLocked(lo, hi)
	p.lent = append(p.lent[:len(p.lent)], b)
	return b, nil
}

// LendBlock returns rows [lo, hi) in a prefetch-owned buffer, valid
// until ReturnBlock (see BlockLender for the ownership rules). A request
// matching the in-flight read-ahead costs one channel receive; anything
// else is read synchronously. Either way the following window's
// read-ahead is launched before LendBlock returns, so the decode of
// block k+1 runs under the caller's compute on block k.
func (p *PrefetchSource) LendBlock(lo, hi int) (*mat.Dense, error) {
	if lo < 0 || hi > p.src.NumRows() || lo >= hi {
		return nil, fmt.Errorf("dataset: LendBlock window [%d, %d) out of range [0, %d)", lo, hi, p.src.NumRows())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b, err := p.lendLocked(lo, hi)
	if err != nil {
		return nil, err
	}
	return &b.m, nil
}

// ReturnBlock gives a block obtained from LendBlock back to the buffer
// pool, freeing it for the next read-ahead. A block it did not lend (the
// zero block a hessian.Stream serves for a failed read) is ignored.
func (p *PrefetchSource) ReturnBlock(m *mat.Dense) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.lent {
		if &b.m == m {
			copy(p.lent[i:], p.lent[i+1:])
			p.lent = p.lent[:len(p.lent)-1]
			p.free = append(p.free[:len(p.free)], b)
			return
		}
	}
}

// ReadRows reads rows [lo, hi) into dst straight from the wrapped
// source: a synchronous demand read that neither takes a lent buffer nor
// schedules a read-ahead, and leaves Stats and any in-flight read alone.
// It is how the lanes of a multi-lane sweep decode their own blocks
// (hessian.LaneRows), all at once, and how per-point fetches (the ROUND
// winner's feature row) bypass the sweep pipeline.
func (p *PrefetchSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(p, lo, hi, dst); err != nil {
		return err
	}
	return p.src.ReadRows(lo, hi, dst)
}

// errClosed reports reads on a closed prefetch layer.
var errClosed = fmt.Errorf("source is closed")

// Close drains any in-flight read (the reader goroutine finishes its
// decode and exits; nothing is torn mid-read) and closes the wrapped
// source. Safe to call more than once.
func (p *PrefetchSource) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.drainLocked()
	p.mu.Unlock()
	if already {
		return nil
	}
	return p.src.Close()
}
