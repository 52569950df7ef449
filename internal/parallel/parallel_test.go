package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// forEach runs fn(i) for every i in [0, n) over ForChunk's chunks.
func forEach(n int, fn func(i int)) {
	ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 10000} {
		var count int64
		seen := make([]int32, n)
		forEach(n, func(i int) {
			atomic.AddInt64(&count, 1)
			atomic.AddInt32(&seen[i], 1)
		})
		if count != int64(n) {
			t.Fatalf("n=%d: ran %d iterations", n, count)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestForChunkDisjointCoverage(t *testing.T) {
	n := 5000
	seen := make([]int32, n)
	ForChunk(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetMaxWorkers(1)", Workers())
	}
	// Serial path must still cover everything.
	var count int
	forEach(1000, func(i int) { count++ }) // safe: single worker
	if count != 1000 {
		t.Fatalf("serial run covered %d", count)
	}
	SetMaxWorkers(0)
	if Workers() < 1 {
		t.Fatal("default workers < 1")
	}
}

func TestForChunkCapsWorkersByMinWork(t *testing.T) {
	prev := SetMaxWorkers(64)
	defer SetMaxWorkers(prev)
	// n barely above minWork: forking 64 goroutines of ~5 iterations each
	// is the bug this guards against — every worker must get at least
	// minWork iterations, so n=300 runs serially and n=1024 uses ≤4 chunks.
	var chunks int64
	var smallest int64 = 1 << 60
	ForChunk(300, func(lo, hi int) {
		atomic.AddInt64(&chunks, 1)
	})
	if chunks != 1 {
		t.Fatalf("n=300 with 64 workers ran %d chunks, want 1 (serial)", chunks)
	}
	chunks = 0
	ForChunk(1024, func(lo, hi int) {
		atomic.AddInt64(&chunks, 1)
		for {
			s := atomic.LoadInt64(&smallest)
			if int64(hi-lo) >= s || atomic.CompareAndSwapInt64(&smallest, s, int64(hi-lo)) {
				break
			}
		}
	})
	if chunks > 4 {
		t.Fatalf("n=1024 ran %d chunks, want ≤ 4", chunks)
	}
	// n=1024 divides evenly into 4 chunks of exactly minWork; in general
	// the final chunk may fall slightly short from ceil-division rounding.
	if chunks > 1 && smallest < 256 {
		t.Fatalf("smallest chunk %d < minWork for evenly divisible n", smallest)
	}
	if !Serial(300) {
		t.Fatal("Serial(300) should be true under the n/minWork cap")
	}
	if Serial(10000) {
		t.Fatal("Serial(10000) should be false with 64 workers allowed")
	}
}

func TestForChunkEmpty(t *testing.T) {
	called := false
	ForChunk(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ForChunk(0) should not call fn")
	}
	ForChunk(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("negative n should not call fn")
	}
}

// TestForChunkBoundaryChunkCounts is the regression test for the
// ceil-division fan-out bug: when n is just over a chunk boundary the old
// dispatch could engage a worker whose [lo, hi) range was empty. For
// boundary values of n the body must see exactly ceil(n/chunk) non-empty,
// disjoint, complete ranges.
func TestForChunkBoundaryChunkCounts(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	cases := []int{
		1, 2, 255, 256, 257, // below/at/just above one chunk of work
		511, 512, 513, // serial/parallel threshold at w=4
		767, 768, 769, // 3-chunk boundary
		1023, 1024, 1025, // 4-chunk boundary
		2047, 2048, 2049,
	}
	for _, n := range cases {
		w := 4
		if lim := n / minWork; w > lim {
			w = lim
		}
		wantChunks := 1
		if w > 1 {
			chunk := (n + w - 1) / w
			wantChunks = (n + chunk - 1) / chunk
		}
		var calls int64
		seen := make([]int32, n)
		ForChunk(n, func(lo, hi int) {
			atomic.AddInt64(&calls, 1)
			if lo >= hi {
				t.Errorf("n=%d: empty chunk [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		if int(calls) != wantChunks {
			t.Errorf("n=%d: %d chunks, want %d", n, calls, wantChunks)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestPoolStress hammers the pool from many goroutines mixing chunked
// loops, nested dispatch, and live resizes — the -race companion of the
// pool's channel/atomic protocol.
func TestPoolStress(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				var sum int64
				ForChunk(3000, func(lo, hi int) {
					// Nested dispatch: the caller participates, so this
					// must complete even with every worker busy.
					ForChunkMin(2, 1, func(ilo, ihi int) {
						atomic.AddInt64(&sum, int64((ihi-ilo)*(hi-lo)))
					})
				})
				if sum != 2*3000 {
					t.Errorf("goroutine %d: sum = %d", g, sum)
				}
				if iter%10 == 0 {
					SetMaxWorkers(2 + iter%3)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolResize checks that growing and shrinking the worker target
// keeps dispatch correct (retired workers drain; new ones join).
func TestPoolResize(t *testing.T) {
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	covered := func(n int) {
		seen := make([]int32, n)
		ForChunk(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("index %d visited %d times", i, v)
			}
		}
	}
	covered(4096)
	SetMaxWorkers(8)
	covered(8192)
	SetMaxWorkers(1)
	covered(4096)
	SetMaxWorkers(6)
	covered(8192)
}

// TestForChunkZeroAllocSteadyState pins the tentpole property: a warm
// dispatch through the persistent pool neither forks goroutines nor
// allocates. The body func is stored in a struct so the call site itself
// is capture-free, mirroring how the mat kernels dispatch.
func TestForChunkZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var sink int64
	body := struct{ fn func(lo, hi int) }{}
	body.fn = func(lo, hi int) { atomic.AddInt64(&sink, int64(hi-lo)) }
	ForChunk(4096, body.fn) // warm the job pool and spawn the workers
	if allocs := testing.AllocsPerRun(50, func() {
		ForChunk(4096, body.fn)
	}); allocs != 0 {
		t.Errorf("ForChunk allocates %.1f objects per warm call", allocs)
	}
}
