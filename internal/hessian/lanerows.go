package hessian

import "repro/internal/mat"

// subBlockBytes bounds the decode window of a lane that decodes its own
// blocks: 256 KiB of float64 rows (512 rows at d = 64) stay in L2 next
// to the kernels' tiles, so each row the decode widens is still there
// when the kernel reads it. A whole 2 MiB block of 4096 rows is not.
const subBlockBytes = 256 << 10

// subBlockRows returns the rows of a lane's decode window over a pool of
// d features in blocks of blockRows rows: the largest power of two whose
// rows fit in subBlockBytes, at least sweepTile, at most blockRows. Every
// window but a block's last is then a whole number of the kernels' row
// tiles (and of the Gram's four-point groups), so a block computed
// window by window has the bits of the block computed at once. It never
// depends on the worker count.
func subBlockRows(d, blockRows int) int {
	rows := sweepTile
	for 2*rows*d*8 <= subBlockBytes {
		rows *= 2
	}
	return min(rows, blockRows)
}

// LaneRows gives one lane of a block sweep (parallel.ForBlocks) the rows
// of the blocks it computes. On a sweep of one lane, and over a resident
// pool, Fetch takes the whole block from Pool.Block: a view, a block the
// read-ahead decoded under the previous block's kernels
// (dataset.BlockLender; a one-lane sweep is the serial loop, so it lends
// in ascending order with one block out), or one decode into workspace
// scratch. On a sweep of more than one lane over a streamed pool, every
// core runs a lane and none is free for a read-ahead, so Fetch only
// notes the block and Next decodes it in the lane, window by window
// (subBlockRows), into one buffer the lane owns, each window just before
// the kernel reads it from L2.
//
// A sweep calls Start before its blocks and Stop after them; a lane's
// Compute calls Fetch for its block, then Next until it returns nil.
type LaneRows struct {
	p      Pool
	ws     *mat.Workspace
	decode bool      // the lane decodes its blocks itself
	win    int       // rows per decode window
	buf    []float64 // the decode buffer: win rows
	lo, hi int       // the block
	next   int       // first row of the next window, or hi when done
	xb     *mat.Dense
	x      mat.Dense // header of the decoded window
}

// Start readies the lane for a sweep of lanes lanes over p, its scratch
// drawn from ws. whole decodes every block in one window, for a kernel
// that needs a whole block's rows at once.
//
//firal:hotpath
func (r *LaneRows) Start(p Pool, ws *mat.Workspace, lanes int, whole bool) {
	r.p, r.ws = p, ws
	r.decode = lanes > 1 && p.Streamed()
	if !r.decode {
		return
	}
	rows := min(p.BlockRows(), p.N())
	r.win = rows
	if !whole {
		r.win = subBlockRows(p.D(), rows)
	}
	r.buf = ws.Vec(r.win * p.D())
}

// Stop releases the lane's decode buffer at the end of the sweep.
//
//firal:hotpath
func (r *LaneRows) Stop() {
	if r.buf != nil {
		r.ws.PutVec(r.buf)
	}
	r.p, r.ws, r.buf, r.x.Data = nil, nil, nil, nil
}

// Fetch takes block [lo, hi) for the lane; a lane that decodes its own
// blocks reads nothing here.
//
//firal:hotpath
func (r *LaneRows) Fetch(lo, hi int) {
	r.lo, r.hi, r.next = lo, hi, lo
	if !r.decode {
		r.xb = r.p.Block(r.ws, lo, hi)
	}
}

// Next returns the block's next rows and the pool index of their first
// row: the whole block, or the next decode window of it. It returns nil
// once the block is done, and by then has given the block back.
//
//firal:hotpath
func (r *LaneRows) Next() (*mat.Dense, int) {
	base := r.next
	if base >= r.hi {
		if r.xb != nil {
			r.p.PutBlock(r.ws, r.xb)
			r.xb = nil
		}
		return nil, 0
	}
	if !r.decode {
		r.next = r.hi
		return r.xb, base
	}
	r.next = min(base+r.win, r.hi)
	d := r.p.D()
	r.x = mat.Dense{Rows: r.next - base, Cols: d, Stride: d, Data: r.buf[:(r.next-base)*d]}
	r.p.Decode(base, r.next, &r.x)
	return &r.x, base
}
