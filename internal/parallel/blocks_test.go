package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderSweep records how ForBlocks drives a sweep and fails t on any
// broken rule: fetches and folds in ascending order, one at a time; a
// block folded only after its Compute; a lane never running two calls
// at once.
type orderSweep struct {
	t      *testing.T
	nextF  atomic.Int64 // next block to fetch
	nextD  atomic.Int64 // next block to fold
	busy   []atomic.Bool
	done   []atomic.Bool // Compute finished, per block
	laneOf []atomic.Int64
	lanes  sync.Map // lanes seen
}

func newOrderSweep(t *testing.T, n, lanes int) *orderSweep {
	return &orderSweep{t: t, busy: make([]atomic.Bool, lanes), done: make([]atomic.Bool, n), laneOf: make([]atomic.Int64, n)}
}

func (s *orderSweep) enter(lane int) {
	if !s.busy[lane].CompareAndSwap(false, true) {
		s.t.Errorf("lane %d runs two calls at once", lane)
	}
	s.lanes.Store(lane, true)
}

func (s *orderSweep) leave(lane int) { s.busy[lane].Store(false) }

func (s *orderSweep) Fetch(lane, k int) {
	s.enter(lane)
	defer s.leave(lane)
	if !s.nextF.CompareAndSwap(int64(k), int64(k+1)) {
		s.t.Errorf("fetched block %d, want %d", k, s.nextF.Load())
	}
	s.laneOf[k].Store(int64(lane))
}

func (s *orderSweep) Compute(lane, k int) {
	s.enter(lane)
	defer s.leave(lane)
	if got := s.laneOf[k].Load(); got != int64(lane) {
		s.t.Errorf("block %d fetched by lane %d, computed by lane %d", k, got, lane)
	}
	if k%2 == 0 {
		// Even blocks take longer, so a later block often finishes
		// first and has to wait for its turn to fold.
		time.Sleep(20 * time.Microsecond)
	}
	s.done[k].Store(true)
}

func (s *orderSweep) Fold(lane, k int) {
	s.enter(lane)
	defer s.leave(lane)
	if !s.done[k].Load() {
		s.t.Errorf("block %d folded before its Compute", k)
	}
	if !s.nextD.CompareAndSwap(int64(k), int64(k+1)) {
		s.t.Errorf("folded block %d, want %d", k, s.nextD.Load())
	}
}

func TestForBlocksOrder(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	for _, n := range []int{0, 1, 2, 7, 64} {
		for _, lanes := range []int{1, 2, 3, 4} {
			for range 10 {
				s := newOrderSweep(t, n, lanes)
				ForBlocks(n, lanes, s)
				if s.nextF.Load() != int64(n) || s.nextD.Load() != int64(n) {
					t.Fatalf("n=%d lanes=%d: fetched %d, folded %d blocks", n, lanes, s.nextF.Load(), s.nextD.Load())
				}
				if lanes == 1 {
					s.lanes.Range(func(k, _ any) bool {
						if k.(int) != 0 {
							t.Fatalf("n=%d: a one-lane sweep ran lane %d", n, k)
						}
						return true
					})
				}
			}
		}
	}
}

// computeOnly is a BlockSweep without Fold.
type computeOnly struct{ seen []atomic.Int32 }

func (s *computeOnly) Fetch(lane, k int)   {}
func (s *computeOnly) Compute(lane, k int) { s.seen[k].Add(1) }

func TestForBlocksWithoutFold(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(3))
	s := &computeOnly{seen: make([]atomic.Int32, 50)}
	ForBlocks(50, 3, s)
	for k := range s.seen {
		if n := s.seen[k].Load(); n != 1 {
			t.Fatalf("block %d computed %d times", k, n)
		}
	}
}

func TestBlockLanes(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	for _, tc := range []struct{ w, n, want int }{
		{1, 0, 1}, {1, 1, 1}, {1, 245, 1},
		{2, 3, 1}, {2, 4, 2}, {2, 245, 2},
		{4, 2, 1}, {4, 3, 1}, {4, 5, 2}, {4, 7, 3}, {4, 8, 4}, {4, 20, 4},
	} {
		SetMaxWorkers(tc.w)
		if got := BlockLanes(tc.n); got != tc.want {
			t.Errorf("W=%d: BlockLanes(%d) = %d, want %d", tc.w, tc.n, got, tc.want)
		}
	}
}

// nopSweep folds nothing and computes nothing: what remains is the
// loop's own cost.
type nopSweep struct{}

func (nopSweep) Fetch(lane, k int)   {}
func (nopSweep) Compute(lane, k int) {}
func (nopSweep) Fold(lane, k int)    {}

func TestForBlocksZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer SetMaxWorkers(SetMaxWorkers(4))
	var s BlockSweep = &nopSweep{}
	ForBlocks(16, 4, s)
	if allocs := testing.AllocsPerRun(50, func() { ForBlocks(16, 4, s) }); allocs != 0 {
		t.Fatalf("a warm four-lane ForBlocks allocates %.1f objects per call", allocs)
	}
}
