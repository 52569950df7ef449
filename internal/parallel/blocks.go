package parallel

import "sync"

// The ordered block loop. A pool sweep visits its row blocks in order,
// and each block's kernels produce a partial that folds into the sweep's
// result. When a sweep has many blocks, the workers take whole blocks:
// each one fetches its block, computes the block's partial alone in its
// own scratch, gives the block back and folds the partial, so no worker
// waits at a barrier after every block. Three rules hold:
//
//   - Blocks are claimed in ascending order, and the claim and the fetch
//     of block k happen together, one claim at a time, so a read-ahead
//     source would see the requests of a serial sweep. A fetch that
//     reads holds every other lane's claim, so the streamed sweeps only
//     note the block in Fetch and read it in Compute
//     (hessian.LaneRows).
//   - A block's partial depends only on the block, not on the lane that
//     computed it.
//   - Partials fold in block order, one at a time, so the result has the
//     serial loop's bits at any worker count.
//
// A sweep of n blocks runs on min(W, n/2) lanes (BlockLanes), so every
// lane gets a run of blocks; a sweep of one to three blocks runs on one.
// No sweep splits the work inside a block.

// BlockSweep is the work of one block loop over blocks [0, n). lane
// identifies the caller's scratch: the calls for one lane never run
// concurrently.
type BlockSweep interface {
	// Fetch takes block k for lane: it obtains the block's rows, or
	// notes the block for a Compute that reads them. Fetches run one at
	// a time, in ascending k.
	Fetch(lane, k int)
	// Compute computes block k in lane's scratch and releases the
	// block's rows. Computes of different lanes run concurrently.
	Compute(lane, k int)
}

// BlockFolder is a BlockSweep whose blocks fold partials into one
// result. A sweep whose blocks write disjoint parts of its result from
// Compute needs no Fold, and its lanes never wait for one another.
type BlockFolder interface {
	BlockSweep
	// Fold adds block k's partial to the sweep's result. Folds run one
	// at a time, in ascending k, after block k's Compute.
	Fold(lane, k int)
}

// BlockLanes returns how many lanes ForBlocks runs a sweep of n blocks
// on: max(1, min(Workers(), n/2)), so that every lane gets at least two
// blocks. The choice depends only on n and Workers().
func BlockLanes(n int) int {
	return max(1, min(Workers(), n/2))
}

// ForBlocks runs s over blocks [0, n) on up to lanes lanes. With one
// lane it is the serial loop on the calling goroutine: Fetch, Compute
// and (for a BlockFolder) Fold of block 0, then of block 1, and so on.
// With more, each lane claims the next block, fetches it, computes it
// and folds it once every earlier block has folded, then claims again.
// Lanes run on the worker pool with the caller taking part; a lane that
// finds no block left returns, so fewer free workers only mean fewer
// lanes at work.
func ForBlocks(n, lanes int, s BlockSweep) {
	f, _ := s.(BlockFolder)
	if lanes <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			s.Fetch(0, k)
			s.Compute(0, k)
			if f != nil {
				f.Fold(0, k)
			}
		}
		return
	}
	j := blockJobs.Get()
	j.s, j.f, j.n, j.next, j.folded = s, f, n, 0, 0
	forChunk(min(lanes, n), 1, j.lanesFn)
	j.s, j.f = nil, nil
	blockJobs.Put(j)
}

// blockJob is the shared state of one multi-lane ForBlocks call, pooled
// with its dispatch func bound once so a warm sweep does not allocate.
type blockJob struct {
	s BlockSweep
	f BlockFolder // s, when it folds
	n int

	// claim is held across a claim and its Fetch, so that claims and
	// fetches pair up in ascending order. Fetch must not re-enter the
	// loop.
	claim sync.Mutex
	next  int // next block to claim, under claim

	fold   sync.Mutex
	turn   sync.Cond // signalled when folded advances
	folded int       // blocks folded so far, under fold

	lanesFn func(lo, hi int)
}

var blockJobs = FreeList[blockJob]{New: func() *blockJob {
	j := &blockJob{}
	j.turn.L = &j.fold
	j.lanesFn = j.lanes
	return j
}}

// lanes runs lanes [lo, hi) of the job, one after the other.
func (j *blockJob) lanes(lo, hi int) {
	for lane := lo; lane < hi; lane++ {
		j.lane(lane)
	}
}

// lane claims, computes and folds blocks until none is left. Only the
// lane holding the lowest unfolded block can be waited for, and it never
// waits, so the lanes cannot deadlock.
func (j *blockJob) lane(lane int) {
	for {
		j.claim.Lock()
		k := j.next
		if k >= j.n {
			j.claim.Unlock()
			return
		}
		j.next++
		j.s.Fetch(lane, k)
		j.claim.Unlock()

		j.s.Compute(lane, k)
		if j.f == nil {
			continue
		}

		j.fold.Lock()
		for j.folded != k {
			j.turn.Wait()
		}
		j.fold.Unlock()
		j.f.Fold(lane, k)
		j.fold.Lock()
		j.folded++
		j.turn.Broadcast()
		j.fold.Unlock()
	}
}
