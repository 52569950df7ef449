package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderSweep records how ForBlocks drives a sweep and fails t on any
// broken rule: every block computed once; folds in ascending order, one
// at a time; a block folded only after its Compute; a lane never running
// two calls at once.
type orderSweep struct {
	t        *testing.T
	nextD    atomic.Int64 // next block to fold
	busy     []atomic.Bool
	computed []atomic.Int32 // Computes, per block
	lanes    sync.Map       // lanes seen
}

func newOrderSweep(t *testing.T, n, lanes int) *orderSweep {
	return &orderSweep{t: t, busy: make([]atomic.Bool, lanes), computed: make([]atomic.Int32, n)}
}

func (s *orderSweep) enter(lane int) {
	if !s.busy[lane].CompareAndSwap(false, true) {
		s.t.Errorf("lane %d runs two calls at once", lane)
	}
	s.lanes.Store(lane, true)
}

func (s *orderSweep) leave(lane int) { s.busy[lane].Store(false) }

func (s *orderSweep) Compute(lane, k int) {
	s.enter(lane)
	defer s.leave(lane)
	if k%2 == 0 {
		// Even blocks take longer, so a later block often finishes
		// first and has to wait for its turn to fold.
		time.Sleep(20 * time.Microsecond)
	}
	if c := s.computed[k].Add(1); c != 1 {
		s.t.Errorf("block %d computed %d times", k, c)
	}
}

func (s *orderSweep) Fold(lane, k int) {
	s.enter(lane)
	defer s.leave(lane)
	if s.computed[k].Load() != 1 {
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
				if s.nextD.Load() != int64(n) {
					t.Fatalf("n=%d lanes=%d: folded %d blocks", n, lanes, s.nextD.Load())
				}
				for k := range s.computed {
					if c := s.computed[k].Load(); c != 1 {
						t.Fatalf("n=%d lanes=%d: block %d computed %d times", n, lanes, k, c)
					}
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
