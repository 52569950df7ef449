package dataset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// prefetchTestSources builds the source compositions the prefetch layer
// must be bit-transparent over: multi-file shard sets (seams inside
// blocks), Subrange views (offset windows) and LiveSource segment
// routing. Each returns a fresh source plus its cleanup; values are
// deterministic and distinct per row so a misrouted or stale block cannot
// collide with the expected bytes.
func prefetchTestSources(t *testing.T) map[string]func() (PoolSource, func()) {
	t.Helper()
	const d = 5
	dir := t.TempDir()
	var paths []string
	rowBase := 0
	for i, rows := range []int{37, 64, 29} { // seams at 37 and 101, ragged tail
		path := filepath.Join(dir, fmt.Sprintf("p%d.shard", i))
		w, err := CreateShard(path, d)
		if err != nil {
			t.Fatal(err)
		}
		x := mat.NewDense(rows, d)
		for r := 0; r < rows; r++ {
			for j := 0; j < d; j++ {
				x.Row(r)[j] = float64((rowBase+r)*d + j)
			}
		}
		if err := w.AppendBlock(x); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rowBase += rows
		paths = append(paths, path)
	}
	openAll := func() *ShardSource {
		src, err := OpenShards(paths...)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	segMatrix := func(rows, base int) *mat.Dense {
		x := mat.NewDense(rows, d)
		for i := range x.Data {
			x.Data[i] = float64(base + i)
		}
		return x
	}
	return map[string]func() (PoolSource, func()){
		"shards": func() (PoolSource, func()) {
			src := openAll()
			return src, func() { src.Close() }
		},
		"subrange": func() (PoolSource, func()) {
			src := openAll()
			return Subrange(src, 17, 103), func() { src.Close() } // crosses both seams
		},
		"live": func() (PoolSource, func()) {
			live := NewLiveSource(NewMatrixSource(segMatrix(41, 0)))
			if _, err := live.Append(NewMatrixSource(segMatrix(23, 41*d))); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Append(NewMatrixSource(segMatrix(58, 64*d))); err != nil {
				t.Fatal(err)
			}
			return live, func() { live.Close() }
		},
	}
}

// syncSweep reads the whole source block by block without prefetch — the
// oracle every prefetched access must match bit for bit.
func syncSweep(t *testing.T, src PoolSource, bs int) *mat.Dense {
	t.Helper()
	n, d := src.NumRows(), src.Dim()
	out := mat.NewDense(n, d)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		if err := src.ReadRows(lo, hi, out.RowSlice(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireBitIdentical compares a served block against the oracle rows
// [lo, hi) at float64 bit granularity.
func requireBitIdentical(t *testing.T, oracle *mat.Dense, b *mat.Dense, lo int, label string) {
	t.Helper()
	for i := 0; i < b.Rows; i++ {
		got, want := b.Row(i), oracle.Row(lo+i)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: row %d col %d = %g (bits %x), oracle %g (bits %x)",
					label, lo+i, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// TestPrefetchBitIdentical is the transparency property test: across
// every source composition and ragged block sizes (seams, run edges, and
// tails all land mid-pipeline), both access styles of a PrefetchSource —
// the zero-copy LendBlock handoff and the copying ReadRows — serve
// exactly the synchronous sweep's bytes, over repeated sweeps.
func TestPrefetchBitIdentical(t *testing.T) {
	for name, make := range prefetchTestSources(t) {
		t.Run(name, func(t *testing.T) {
			for _, bs := range []int{7, 16, 33, 60} {
				// Fresh source per block size: Close on the wrapper below
				// closes the wrapped source (the prefetcher owns it).
				src, done := make()
				oracle := syncSweep(t, src, bs)
				p := NewPrefetchSource(context.Background(), src)
				n := src.NumRows()
				for sweep := 0; sweep < 2; sweep++ {
					for lo := 0; lo < n; lo += bs {
						hi := min(lo+bs, n)
						b, err := p.LendBlock(lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, oracle, b, lo, fmt.Sprintf("bs=%d sweep=%d lend", bs, sweep))
						p.ReturnBlock(b)
					}
				}
				// The forward-sweep prediction must actually hit: each lend
				// sweep pays exactly one synchronous read (its first block).
				hits, misses := p.Stats()
				blocks := int64((n + bs - 1) / bs)
				if misses != 2 || hits != 2*(blocks-1) {
					t.Fatalf("bs=%d: %d hits / %d misses over 2 sweeps of %d blocks; want %d / 2",
						bs, hits, misses, blocks, 2*(blocks-1))
				}
				dst := mat.NewDense(min(bs, n), src.Dim())
				for lo := 0; lo < n; lo += bs {
					hi := min(lo+bs, n)
					d := dst.RowSlice(0, hi-lo)
					if err := p.ReadRows(lo, hi, d); err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, oracle, d, lo, fmt.Sprintf("bs=%d readrows", bs))
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				done()
			}
		})
	}
}

// TestPrefetchArbitraryAccess pins graceful degradation: requests that
// break the forward-sweep pattern (repeats, backward jumps, misaligned
// windows) still serve exact bytes — they just read synchronously.
func TestPrefetchArbitraryAccess(t *testing.T) {
	src, done := prefetchTestSources(t)["shards"]()
	defer done()
	oracle := syncSweep(t, src, 16)
	p := NewPrefetchSource(context.Background(), src)
	defer p.Close()
	windows := [][2]int{{0, 16}, {16, 32}, {16, 32}, {5, 45}, {100, 130}, {0, 130}, {64, 80}, {80, 96}}
	for _, w := range windows {
		b, err := p.LendBlock(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, oracle, b, w[0], fmt.Sprintf("window [%d,%d)", w[0], w[1]))
		p.ReturnBlock(b)
	}
	// The final pair [64,80) [80,96) is forward-sweep shaped again: the
	// pipeline must recover and hit after any amount of random access.
	if hits, _ := p.Stats(); hits == 0 {
		t.Fatal("pipeline did not recover a hit after random access")
	}
}

// TestPrefetchSingleRowPassthrough pins that per-point fetches (the ROUND
// winner's feature row mid-sweep) bypass the pipeline entirely: they
// neither drain the in-flight read nor count as hits or misses, so the
// sweep they interrupt keeps its overlap.
func TestPrefetchSingleRowPassthrough(t *testing.T) {
	src, done := prefetchTestSources(t)["shards"]()
	defer done()
	oracle := syncSweep(t, src, 16)
	p := NewPrefetchSource(context.Background(), src)
	defer p.Close()
	b, err := p.LendBlock(0, 16) // miss; schedules [16, 32)
	if err != nil {
		t.Fatal(err)
	}
	p.ReturnBlock(b)
	row := mat.NewDense(1, src.Dim())
	if err := p.ReadRows(77, 78, row); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, oracle, row, 77, "single row")
	if b, err = p.LendBlock(16, 32); err != nil {
		t.Fatal(err)
	}
	p.ReturnBlock(b)
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("single-row read perturbed the pipeline: %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// TestWithPrefetch pins the composition hook's skip decisions: resident
// sources (no decode to hide) and single-block pools (nothing to read
// ahead) pass through unchanged; a multi-block streaming source gets
// wrapped.
func TestWithPrefetch(t *testing.T) {
	resident := NewMatrixSource(mat.NewDense(10000, 3))
	if got := WithPrefetch(context.Background(), resident, 64); got != PoolSource(resident) {
		t.Fatalf("WithPrefetch wrapped a Resident source: %T", got)
	}
	src, done := prefetchTestSources(t)["shards"]()
	defer done()
	if got := WithPrefetch(context.Background(), src, 1024); got != PoolSource(src) {
		t.Fatalf("WithPrefetch wrapped a single-block pool (n=%d ≤ blockRows=1024): %T", src.NumRows(), got)
	}
	got := WithPrefetch(context.Background(), src, 16)
	p, ok := got.(*PrefetchSource)
	if !ok {
		t.Fatalf("WithPrefetch returned %T for a multi-block streaming source, want *PrefetchSource", got)
	}
	p.Close()
}

// TestPrefetchGenerationPinning pins the growable-source interaction:
// Subrange over a prefetched live pool is a real view, never the wrapper
// itself, and the pinned window ignores rows appended after the view was
// taken.
func TestPrefetchGenerationPinning(t *testing.T) {
	live := NewLiveSource(NewMatrixSource(mat.NewDense(40, 2)))
	defer live.Close()
	p := NewPrefetchSource(context.Background(), live)
	view := Subrange(p, 0, 40)
	if view == PoolSource(p) {
		t.Fatal("Subrange identity-shortcut a view over a growable source")
	}
	if _, err := live.Append(NewMatrixSource(mat.NewDense(20, 2))); err != nil {
		t.Fatal(err)
	}
	if p.NumRows() != 60 {
		t.Fatalf("append not visible through the wrapper: %d rows", p.NumRows())
	}
	if view.NumRows() != 40 {
		t.Fatalf("pinned view grew to %d rows after append", view.NumRows())
	}
}

// TestCountingSourceGenerationPinning is the regression for a whole-pool
// view over a counted live pool: Subrange(counting-over-live, 0, n) must
// stay pinned — an identity shortcut that handed back the raw counting
// source made the "pinned" view track later appends.
func TestCountingSourceGenerationPinning(t *testing.T) {
	live := NewLiveSource(NewMatrixSource(mat.NewDense(30, 2)))
	defer live.Close()
	counting := NewCountingSource(live)
	view := Subrange(counting, 0, 30)
	if view == PoolSource(counting) {
		t.Fatal("Subrange identity-shortcut a counted growable source")
	}
	if _, err := live.Append(NewMatrixSource(mat.NewDense(12, 2))); err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 30 {
		t.Fatalf("pinned view over a counted live pool grew to %d rows", view.NumRows())
	}
}

// faultSource serves deterministic rows until failAt, then fails with a
// shard-style path-carrying error chain.
type faultSource struct {
	n, d   int
	failAt int
	cause  error
}

func (f *faultSource) NumRows() int { return f.n }
func (f *faultSource) Dim() int     { return f.d }
func (f *faultSource) Close() error { return nil }
func (f *faultSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(f, lo, hi, dst); err != nil {
		return err
	}
	if hi > f.failAt {
		return fmt.Errorf("dataset: shard /pool/p0.shard: %w", f.cause)
	}
	for i := lo; i < hi; i++ {
		for j := 0; j < f.d; j++ {
			dst.Row(i - lo)[j] = float64(i*f.d + j)
		}
	}
	return nil
}

// TestPrefetchErrorPropagation pins read-failure semantics: an error hit
// by the asynchronous read surfaces on the request that consumes it,
// wrapped with the prefetch window while preserving the source's own
// chain (the shard path and the typed cause stay reachable), and the
// source remains usable for windows that still succeed.
func TestPrefetchErrorPropagation(t *testing.T) {
	cause := errors.New("input/output error")
	src := &faultSource{n: 100, d: 3, failAt: 64, cause: cause}
	p := NewPrefetchSource(context.Background(), src)
	defer p.Close()
	b, err := p.LendBlock(0, 32) // schedules [32, 64) — still readable
	if err != nil {
		t.Fatal(err)
	}
	p.ReturnBlock(b)
	if b, err = p.LendBlock(32, 64); err != nil { // schedules [64, 96) — fails async
		t.Fatal(err)
	}
	p.ReturnBlock(b)
	_, err = p.LendBlock(64, 96)
	if err == nil {
		t.Fatal("prefetched read past failAt succeeded")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("typed cause lost through the prefetch wrap: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"prefetch rows [64, 96)", "/pool/p0.shard"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// A failed window must not poison the pipeline: earlier rows still
	// serve, and the freed buffer is reusable.
	if b, err = p.LendBlock(0, 32); err != nil {
		t.Fatalf("source unusable after an async read error: %v", err)
	}
	p.ReturnBlock(b)
	// The same failure surfaces on the copying path too.
	dst := mat.NewDense(32, 3)
	if err := p.ReadRows(64, 96, dst); err == nil || !errors.Is(err, cause) {
		t.Fatalf("ReadRows past failAt: %v, want the wrapped cause", err)
	}
}

// slowSource delays each read so cancellation tests reliably catch a
// read in flight.
type slowSource struct {
	MatrixSource
	delay time.Duration
}

func (s *slowSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	time.Sleep(s.delay)
	return s.MatrixSource.ReadRows(lo, hi, dst)
}

func newSlowSource(n, d int, delay time.Duration) *slowSource {
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	return &slowSource{MatrixSource: *NewMatrixSource(x), delay: delay}
}

// settleGoroutines polls until the goroutine count returns to base (the
// TestNoGoroutineLeak pattern: prefetch readers exit on their own — a
// buffered send is their only obligation — but need a moment to unwind).
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrefetchCancelAndCloseNoLeak pins the lifecycle contract under
// mid-sweep teardown: cancelling the construction context stops the
// read-ahead but NOT the demand reads — the solvers panic on mid-sweep
// read failures and exit cancelled sweeps at their own ctx polls, so
// cancellation must never masquerade as a read error — mid-sweep Close
// drains the in-flight decode deterministically, and neither path — nor
// an abandoned source with a read still in flight — leaves a reader
// goroutine behind.
func TestPrefetchCancelAndCloseNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	t.Run("ctx-cancel mid-sweep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		src := newSlowSource(200, 4, 2*time.Millisecond)
		p := NewPrefetchSource(ctx, src)
		b, err := p.LendBlock(0, 32) // read of [32, 64) now in flight
		if err != nil {
			t.Fatal(err)
		}
		p.ReturnBlock(b)
		cancel()
		// The sweep keeps reading correct data after the cancel (the
		// in-flight [32, 64) result may still be served)...
		oracle := mat.NewDense(200, 4)
		for i := range oracle.Data {
			oracle.Data[i] = float64(i)
		}
		for lo := 32; lo < 200; lo += 32 {
			hi := lo + 32
			if hi > 200 {
				hi = 200
			}
			b, err := p.LendBlock(lo, hi)
			if err != nil {
				t.Fatalf("LendBlock [%d, %d) after cancel: %v — cancellation must not fail demand reads", lo, hi, err)
			}
			requireBitIdentical(t, oracle, b, lo, "post-cancel block")
			p.ReturnBlock(b)
		}
		// ...but no new read-ahead is scheduled once the in-flight one
		// drains: everything past the cancel (after the possible single
		// pre-cancel hit) is a synchronous miss.
		if hits, misses := p.Stats(); hits+misses != 7 || hits > 2 {
			t.Fatalf("post-cancel sweep scored %d hits / %d misses; read-ahead should have stopped", hits, misses)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("close mid-sweep", func(t *testing.T) {
		src := newSlowSource(200, 4, 2*time.Millisecond)
		p := NewPrefetchSource(context.Background(), src)
		b, err := p.LendBlock(0, 32)
		if err != nil {
			t.Fatal(err)
		}
		p.ReturnBlock(b)
		if err := p.Close(); err != nil { // drains the [32, 64) read
			t.Fatal(err)
		}
		if _, err := p.LendBlock(32, 64); err == nil {
			t.Fatal("LendBlock succeeded on a closed source")
		}
		if err := p.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})

	t.Run("abandoned mid-flight", func(t *testing.T) {
		// No Close at all: the reader's buffered send lets it exit anyway.
		src := newSlowSource(200, 4, 2*time.Millisecond)
		p := NewPrefetchSource(context.Background(), src)
		if b, err := p.LendBlock(0, 32); err != nil {
			t.Fatal(err)
		} else {
			p.ReturnBlock(b)
		}
	})

	settleGoroutines(t, base)
}

// TestPrefetchLiveAppendStress is the -race stress test for the
// growable-pool composition: a prefetched sweep over a pinned
// Subrange(live, 0, n) view runs while appenders grow the pool
// underneath. Every block served must match the pre-append oracle — the
// LiveSource snapshots its segment list per read, the view pins [0, n),
// and the prefetch layer must preserve both through its asynchronous
// reads.
func TestPrefetchLiveAppendStress(t *testing.T) {
	const n, d, bs = 160, 3, 16
	seg := mat.NewDense(n, d)
	for i := range seg.Data {
		seg.Data[i] = float64(i)
	}
	live := NewLiveSource(NewMatrixSource(seg))
	defer live.Close()
	pinned := Subrange(live, 0, n)
	oracle := syncSweep(t, pinned, bs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := live.Append(NewMatrixSource(mat.NewDense(7, d))); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				runtime.Gosched()
			}
		}
	}()

	p := NewPrefetchSource(context.Background(), pinned)
	for sweep := 0; sweep < 20; sweep++ {
		for lo := 0; lo < n; lo += bs {
			hi := min(lo+bs, n)
			b, err := p.LendBlock(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, oracle, b, lo, fmt.Sprintf("sweep %d under append", sweep))
			p.ReturnBlock(b)
		}
	}
	close(stop)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchConcurrentReadersStress pins the PoolSource concurrency
// clause under -race: ReadRows through one shared PrefetchSource from
// four goroutines at once (each with a private dst), as the lanes of a
// multi-lane sweep read, serves exact bytes and never touches the
// read-ahead.
func TestPrefetchConcurrentReadersStress(t *testing.T) {
	src, done := prefetchTestSources(t)["shards"]()
	defer done()
	const bs = 16
	oracle := syncSweep(t, src, bs)
	p := NewPrefetchSource(context.Background(), src)
	defer p.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := src.NumRows()
			dst := mat.NewDense(bs, src.Dim())
			for sweep := 0; sweep < 10; sweep++ {
				for lo := 0; lo < n; lo += bs {
					hi := min(lo+bs, n)
					d := dst.RowSlice(0, hi-lo)
					if err := p.ReadRows(lo, hi, d); err != nil {
						errc <- err
						return
					}
					for i := 0; i < d.Rows; i++ {
						for j := range d.Row(i) {
							if math.Float64bits(d.Row(i)[j]) != math.Float64bits(oracle.Row(lo + i)[j]) {
								errc <- fmt.Errorf("row %d col %d corrupted under concurrency", lo+i, j)
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if hits, misses := p.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("concurrent ReadRows scored %d hits / %d misses, want none", hits, misses)
	}
}

// TestPrefetchReadRowsPassThrough pins ReadRows as a demand read: a
// multi-row read returns the source's exact bits, takes no lent buffer,
// schedules no read-ahead and leaves both Stats counters alone, even
// while a read-ahead of the same window is in flight, which the next
// lend still hits.
func TestPrefetchReadRowsPassThrough(t *testing.T) {
	src, done := prefetchTestSources(t)["shards"]()
	defer done()
	oracle := syncSweep(t, src, 16)
	p := NewPrefetchSource(context.Background(), src)
	defer p.Close()
	dst := mat.NewDense(40, src.Dim())
	for _, w := range [][2]int{{0, 40}, {5, 45}, {100, 130}} {
		d := dst.RowSlice(0, w[1]-w[0])
		if err := p.ReadRows(w[0], w[1], d); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, oracle, d, w[0], fmt.Sprintf("ReadRows [%d,%d)", w[0], w[1]))
	}
	p.mu.Lock()
	inflight, lent, free := p.inflight, len(p.lent), len(p.free)
	p.mu.Unlock()
	if inflight || lent != 0 || free != 2 {
		t.Fatalf("ReadRows left inflight=%v, %d lent and %d free buffers; want no read-ahead, 0 lent, 2 free", inflight, lent, free)
	}
	if hits, misses := p.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("ReadRows scored %d hits / %d misses, want none", hits, misses)
	}
	b, err := p.LendBlock(0, 16) // a miss; schedules [16, 32)
	if err != nil {
		t.Fatal(err)
	}
	p.ReturnBlock(b)
	d := dst.RowSlice(0, 16)
	if err := p.ReadRows(16, 32, d); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, oracle, d, 16, "ReadRows under a read-ahead")
	if b, err = p.LendBlock(16, 32); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, oracle, b, 16, "lend after ReadRows")
	p.ReturnBlock(b)
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("ReadRows disturbed the read-ahead: %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// lendSweep borrows a pool's blocks on one parallel.ForBlocks lane, as
// the blocked kernels of a one-lane sweep do: Compute lends block k, in
// ascending order, and returns it before block k+1 is lent.
type lendSweep struct {
	p      *PrefetchSource
	n, bs  int
	failed atomic.Pointer[error]
}

func (s *lendSweep) Compute(_, k int) {
	b, err := s.p.LendBlock(k*s.bs, min((k+1)*s.bs, s.n))
	if err != nil {
		s.fail(err)
	}
	if b != nil {
		s.p.ReturnBlock(b)
	}
}

// fail keeps the first lend error; out of line, so a lend that succeeds
// does not move its error variable to the heap.
func (s *lendSweep) fail(err error) { s.failed.CompareAndSwap(nil, &err) }

// TestPrefetchSweepZeroAllocWarm pins the steady-state allocation
// contract of the lend path on the one-lane sweep that uses it: the
// source keeps its two buffers (the lent block and the read-ahead), a
// warm prefetched sweep — lends, returns and the asynchronous read-ahead
// spawns — allocates nothing, and only the first window of each sweep
// misses the read-ahead. Named *Alloc* for the CI alloc-multicore job.
func TestPrefetchSweepZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	const n, d, bs = 4096, 8, 256
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	// MatrixSource.ReadRows is a pure copy, so every remaining
	// allocation is the prefetch machinery's own.
	p := NewPrefetchSource(context.Background(), NewMatrixSource(x))
	defer p.Close()
	s := &lendSweep{p: p, n: n, bs: bs}
	sweep := func() { parallel.ForBlocks(n/bs, 1, s) }
	sweep()
	_, missed := p.Stats()
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, sweep); allocs != 0 {
		t.Fatalf("warm prefetched sweep allocates %.1f objects per sweep", allocs)
	}
	if err := s.failed.Load(); err != nil {
		t.Fatal(*err)
	}
	// AllocsPerRun makes one warm-up call besides the runs.
	if _, misses := p.Stats(); misses-missed != runs+1 {
		t.Fatalf("%d read-ahead misses in %d sweeps, want one per sweep", misses-missed, runs+1)
	}
	if got := len(p.free); got != 2 {
		t.Fatalf("the source holds %d buffers after the sweeps, want 2", got)
	}
}
