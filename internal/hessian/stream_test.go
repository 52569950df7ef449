package hessian

import (
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
)

// streamTestData builds a random Set plus weights with awkward shapes.
func streamTestData(seed int64, n, d, c int) (*Set, []float64) {
	rng := rnd.New(seed)
	x := mat.NewDense(n, d)
	rng.Normal(x.Data, 0, 1)
	h := mat.NewDense(n, c)
	for i := 0; i < n; i++ {
		row := h.Row(i)
		var sum float64
		for k := range row {
			row[k] = 0.05 + rng.Float64()
			sum += row[k]
		}
		for k := range row {
			row[k] /= sum * 1.1 // interior probabilities, off the simplex boundary
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return NewSet(x, h), w
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestStreamMatchesSetOracle is the block-boundary property test: for
// ragged n not divisible by the block size (and block sizes bracketing
// n), every blocked kernel over a Stream must match the resident Set
// oracle to summation-order tolerance — including MatVec accumulation
// across blocks, the globally-indexed gradient accumulation, and the Gram
// block accumulation.
func TestStreamMatchesSetOracle(t *testing.T) {
	const n, d, c = 997, 11, 4 // 997 is prime: ragged against every block size
	set, w := streamTestData(5, n, d, c)
	rng := rnd.New(6)
	v := make([]float64, d*c)
	u := make([]float64, d*c)
	rng.Normal(v, 0, 1)
	rng.Normal(u, 0, 1)

	wantMV := matVec(nil, set, nil, v, w)
	wantQuad := make([]float64, n)
	quadAccum(nil, set, wantQuad, u, v, -0.5)
	wantBlocks := BlockDiagSumInto(nil, set, nil, w)

	for _, bs := range []int{1, 16, 64, 996, 997, 1024} {
		stream := NewStream(dataset.NewMatrixSource(set.X), set.H, bs)
		ws := mat.NewWorkspace()

		gotMV := matVec(ws, stream, nil, v, w)
		if diff := maxAbsDiff(gotMV, wantMV); diff > 1e-10 {
			t.Errorf("bs=%d: MatVec diverges from resident oracle by %g", bs, diff)
		}
		gotQuad := make([]float64, n)
		quadAccum(ws, stream, gotQuad, u, v, -0.5)
		if diff := maxAbsDiff(gotQuad, wantQuad); diff > 1e-10 {
			t.Errorf("bs=%d: QuadAccum diverges from resident oracle by %g", bs, diff)
		}
		gotBlocks := BlockDiagSumInto(ws, stream, nil, w)
		for k := range wantBlocks {
			if diff := maxAbsDiff(gotBlocks[k].Data, wantBlocks[k].Data); diff > 1e-9 {
				t.Errorf("bs=%d: Gram block %d diverges by %g", bs, k, diff)
			}
		}
	}
}

// TestResidentSetCrossesBlockBoundary pins the resident Set's own blocked
// path: a pool larger than the default block size must agree with a
// single-block sweep of the same data.
func TestResidentSetCrossesBlockBoundary(t *testing.T) {
	n := dataset.DefaultBlockRows + 173 // forces two blocks, ragged tail
	set, w := streamTestData(7, n, 6, 3)
	rng := rnd.New(8)
	v := make([]float64, set.Ed())
	rng.Normal(v, 0, 1)

	// Single-block oracle: the same engine with blockRows ≥ n.
	oracle := NewStream(dataset.NewMatrixSource(set.X), set.H, n)
	want := matVec(nil, oracle, nil, v, w)
	got := matVec(nil, set, nil, v, w)
	if diff := maxAbsDiff(got, want); diff > 1e-10 {
		t.Fatalf("resident multi-block MatVec diverges from single-block oracle by %g", diff)
	}
	wantQ := make([]float64, n)
	gotQ := make([]float64, n)
	quadAccum(nil, oracle, wantQ, v, v, 1)
	quadAccum(nil, set, gotQ, v, v, 1)
	if diff := maxAbsDiff(gotQ, wantQ); diff > 1e-10 {
		t.Fatalf("resident multi-block QuadAccum diverges by %g", diff)
	}
	wb := BlockDiagSumInto(nil, oracle, nil, w)
	gb := BlockDiagSumInto(nil, set, nil, w)
	for k := range wb {
		if diff := maxAbsDiff(gb[k].Data, wb[k].Data); diff > 1e-9 {
			t.Fatalf("resident multi-block Gram block %d diverges by %g", k, diff)
		}
	}
}

// TestSetServesZeroCopy pins the resident path: the blocks and rows a
// Set serves alias X's storage, so a resident pool reaches the kernels
// without a copy.
func TestSetServesZeroCopy(t *testing.T) {
	const n, d = 50, 6
	set, _ := streamTestData(10, n, d, 3)
	ws := mat.NewWorkspace()
	b := set.Block(ws, 7, 19)
	if b.Rows != 12 || b.Cols != d || &b.Data[0] != &set.X.Row(7)[0] || &b.Data[len(b.Data)-1] != &set.X.Row(18)[d-1] {
		t.Fatalf("Block(7, 19) is %d×%d and does not alias rows 7–18 of X", b.Rows, b.Cols)
	}
	set.PutBlock(ws, b)
	buf := make([]float64, d)
	for _, i := range []int{0, 23, n - 1} {
		if row := set.Row(i, buf); len(row) != d || &row[0] != &set.X.Row(i)[0] {
			t.Fatalf("Row(%d) does not alias row %d of X", i, i)
		}
	}
}

// TestStreamShardMatchesRoundedResident checks the full out-of-core path:
// a Stream over mmap'd float32 shards must match a resident Set built
// from the float32-rounded values bit-for-bit.
func TestStreamShardMatchesRoundedResident(t *testing.T) {
	const n, d, c = 301, 9, 3
	set, w := streamTestData(9, n, d, c)
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.shard"), filepath.Join(dir, "b.shard")}
	for s, span := range [][2]int{{0, 150}, {150, n}} {
		sw, err := dataset.CreateShard(paths[s], d)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AppendBlock(set.X.RowSlice(span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	src, err := dataset.OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Resident oracle over the rounded values.
	rounded := mat.NewDense(n, d)
	for i := range rounded.Data {
		rounded.Data[i] = float64(float32(set.X.Data[i]))
	}
	oracle := NewSet(rounded, set.H)

	stream := NewStream(src, set.H, 64)
	v := make([]float64, d*c)
	rnd.New(10).Normal(v, 0, 1)
	want := matVec(nil, oracle, nil, v, w)
	got := matVec(nil, stream, nil, v, w)
	if diff := maxAbsDiff(got, want); diff > 1e-10 {
		t.Fatalf("shard stream MatVec diverges from rounded resident oracle by %g", diff)
	}
}

// TestStreamZeroAllocWarm pins the streaming paths' steady-state
// allocation behaviour: with a warm workspace, both the zero-copy
// in-memory source and the decode-into-scratch shard source run the
// blocked kernels at 0 allocs/op. The pool has nine blocks, the last one
// ragged, so at GOMAXPROCS 2 and 4 (with as many workers) every sweep
// hands whole blocks to the workers, each lane decoding into its own
// workspace; at one worker it is the serial loop.
func TestStreamZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	const n, d, c, bs = 530, 8, 3, 64
	set, w := streamTestData(11, n, d, c)

	shardPath := filepath.Join(t.TempDir(), "pool.shard")
	sw, err := dataset.CreateShard(shardPath, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendBlock(set.X); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	shards, err := dataset.OpenShards(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()

	v := make([]float64, d*c)
	rnd.New(12).Normal(v, 0, 1)
	dst := make([]float64, d*c)
	quad := make([]float64, n)
	for _, nw := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(max(nw, 2))
		parallel.SetMaxWorkers(nw)
		if nb := (n + bs - 1) / bs; nw > 1 && parallel.BlockLanes(nb) != nw {
			t.Fatalf("%d blocks at %d workers run on %d lanes", nb, nw, parallel.BlockLanes(nb))
		}
		for _, tc := range []struct {
			name string
			src  dataset.PoolSource
		}{
			{"in-memory", dataset.NewMatrixSource(set.X)},
			{"mmap-shard", shards},
		} {
			stream := NewStream(tc.src, set.H, bs)
			ws := mat.NewWorkspace()
			var blocks []*mat.Dense
			iter := func() {
				matVec(ws, stream, dst, v, w)
				quadAccum(ws, stream, quad, v, v, 0.5)
				blocks = BlockDiagSumInto(ws, stream, blocks, w)
			}
			iter() // warm the workspaces and block scratch
			if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
				t.Errorf("%s at %d workers: blocked kernels allocate %.1f objects per sweep with a warm workspace",
					tc.name, nw, allocs)
			}
		}
	}
}

// badRows fails every read touching rows [lo, hi). It hides the
// wrapped source's Resident fast path, so a Stream over it copies.
type badRows struct {
	dataset.PoolSource
	lo, hi int
}

var errBadRows = errors.New("bad rows")

func (s badRows) ReadRows(lo, hi int, dst *mat.Dense) error {
	if lo < s.hi && hi > s.lo {
		return errBadRows
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// TestStreamReadErrorIsSticky pins the failure model of a streamed pool
// on the workspace and the lending (prefetch) path: a failed read serves
// zeros instead of panicking, Err keeps the first error wrapped in
// ErrPoolRead over the source's, the zero block goes back through
// PutBlock, and reads of good rows keep working.
func TestStreamReadErrorIsSticky(t *testing.T) {
	set, _ := streamTestData(8, 40, 3, 2)
	src := badRows{PoolSource: dataset.NewMatrixSource(set.X), lo: 10, hi: 12}
	for name, st := range map[string]*Stream{
		"workspace": NewStream(src, set.H, 8),
		"lend":      NewStream(dataset.NewPrefetchSource(nil, src), set.H, 8),
	} {
		ws := mat.NewWorkspace()
		for round := 0; round < 2; round++ {
			for lo := 0; lo < 40; lo += 8 {
				b := st.Block(ws, lo, lo+8)
				for i := 0; i < 8; i++ {
					want := set.X.Row(lo + i)
					if lo == 8 {
						want = make([]float64, 3)
					}
					if maxAbsDiff(b.Row(i), want) != 0 {
						t.Fatalf("%s: row %d = %v, want %v", name, lo+i, b.Row(i), want)
					}
				}
				st.PutBlock(ws, b)
			}
		}
		if row := st.Row(11, make([]float64, 3)); maxAbsDiff(row, make([]float64, 3)) != 0 {
			t.Fatalf("%s: failed row read gave %v, want zeros", name, row)
		}
		err := st.Err()
		if !errors.Is(err, ErrPoolRead) || !errors.Is(err, errBadRows) {
			t.Fatalf("%s: Err() = %v, want ErrPoolRead over the source error", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "rows [8, 16)") {
			t.Fatalf("%s: Err() = %q does not name the first failed window", name, msg)
		}
	}
	if set.Err() != nil {
		t.Fatal("a resident set reported a read error")
	}
}

// TestStreamReadErrorConcurrent shares one failing Stream between four
// sweepers, on both paths: each sees zeros for the rows that failed and
// good rows elsewhere, and Err keeps one wrapped failure. It is the
// -race check of the sticky error.
func TestStreamReadErrorConcurrent(t *testing.T) {
	set, _ := streamTestData(9, 64, 3, 2)
	src := badRows{PoolSource: dataset.NewMatrixSource(set.X), lo: 20, hi: 22}
	for name, st := range map[string]*Stream{
		"workspace": NewStream(src, set.H, 8),
		"lend":      NewStream(dataset.NewPrefetchSource(nil, src), set.H, 8),
	} {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := mat.NewWorkspace()
				for lo := 0; lo < 64; lo += 8 {
					b := st.Block(ws, lo, lo+8)
					want := set.X.At(lo+4, 0)
					if lo == 16 {
						want = 0
					}
					if got := b.At(4, 0); got != want {
						t.Errorf("%s: row %d col 0 = %g, want %g", name, lo+4, got, want)
					}
					st.PutBlock(ws, b)
				}
			}()
		}
		wg.Wait()
		if err := st.Err(); !errors.Is(err, ErrPoolRead) || !errors.Is(err, errBadRows) {
			t.Fatalf("%s: Err() = %v, want ErrPoolRead over the source error", name, err)
		}
	}
}
