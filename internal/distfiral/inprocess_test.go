package distfiral

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// inflightSource counts the ReadRows calls started on, and in progress
// on, the wrapped source. It does not forward dataset.Resident, so a
// streaming shard below it still gets block read-ahead.
type inflightSource struct {
	dataset.PoolSource
	started, n atomic.Int64
}

func (s *inflightSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	s.started.Add(1)
	s.n.Add(1)
	defer s.n.Add(-1)
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// checkIdle fails if a read of s is in flight now or starts within a
// short window after now. A read-ahead left scheduled past a sweep would
// be a goroutine that may not have reached ReadRows yet, so the window
// gives it time to show; a correct run starts none.
func (s *inflightSource) checkIdle(t *testing.T, when string) {
	t.Helper()
	if s == nil {
		return
	}
	before := s.started.Load()
	if n := s.n.Load(); n != 0 {
		t.Fatalf("%d reads of the caller's source in flight %s", n, when)
	}
	time.Sleep(20 * time.Millisecond)
	if late := s.started.Load() - before; late != 0 {
		t.Fatalf("%d reads of the caller's source started %s", late, when)
	}
}

// multiBlockRows is a pool size whose every rank slice at p ≤ 3 spans
// many blocks of dataset.BlockRowsFor the slice, the last one ragged: 25
// blocks of 512 rows at p = 1, 25 of 256 at p = 2, 17 of 256 at p = 3.
// So each rank of SelectInProcess sweeps a multi-block pool on block lanes
// with read-ahead over a streaming source.
const multiBlockRows = 3*dataset.DefaultBlockRows + 212

// twoFileShard packs x into two shard files split at row `split`.
func twoFileShard(t *testing.T, x *mat.Dense, split int) *dataset.ShardSource {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.shard"), filepath.Join(dir, "b.shard")}
	for i, part := range []*mat.Dense{x.RowSlice(0, split), x.RowSlice(split, x.Rows)} {
		if err := dataset.PackShard(paths[i], dataset.NewMatrixSource(part)); err != nil {
			t.Fatal(err)
		}
	}
	src, err := dataset.OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// oldHarness is the selection every front end assembled by hand before
// SelectInProcess: at p = 1 SelectApprox over a prefetched NewStream, at
// p ≥ 2 mpi.Run over MakeStreamShard partitions with RELAX and ROUND
// composed per rank, each pool in blocks of the size a TCP rank takes
// (blockRows 0: dataset.BlockRowsFor its slice). It is the bit-identity
// oracle: it returns the selection and rank 0's RELAX weights z, whose
// bits move with the block size.
func oldHarness(t *testing.T, ranks int, labeled *hessian.Set, src dataset.PoolSource, probs *mat.Dense, b int, o firal.Options) ([]int, []float64) {
	t.Helper()
	ctx := context.Background()
	if ranks <= 1 {
		// The prefetcher is not closed: its Close would close src, which
		// the caller still uses.
		pool := hessian.NewStream(dataset.WithPrefetch(ctx, src, 0), probs, 0)
		res, err := firal.SelectApprox(ctx, firal.NewProblem(labeled, pool), b, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Selected, res.Relax.Z
	}
	selected := make([][]int, ranks)
	var z []float64
	errs := make([]error, ranks)
	runRanks(t, ranks, func(c *mpi.Comm) {
		sh := MakeStreamShard(labeled, src, probs, 0, ranks, c.Rank())
		relax, err := Relax(ctx, c, sh, b, o.Relax)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		round, err := Round(ctx, c, sh, relax.Z, b, o.Eta, o.Exclude...)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		selected[c.Rank()] = round.Selected
		if c.Rank() == 0 {
			z = relax.Z
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("oracle rank %d: %v", r, err)
		}
	}
	return selected[0], z
}

// TestSelectInProcess pins the one in-process runner against the
// hand-built harnesses it replaced, over a resident MatrixSource and a
// two-file ShardSource whose every rank slice spans two blocks, so
// read-ahead engages: the selections and RELAX weights are bit-identical
// with and without an exclude set, OnIteration fires on rank 0 only, an η grid is refused
// at p ≥ 2, and no read of the caller's source is in flight on return —
// after a full run and after a cancellation mid-RELAX.
func TestSelectInProcess(t *testing.T) {
	labeled, pool := testSets(41, 20, multiBlockRows, 6, 3)
	const b = 5
	base := firal.Options{Relax: firal.RelaxOptions{FixedIterations: 3, Seed: 9, Probes: 4}}
	shard := twoFileShard(t, pool.X, 61)
	wantEta := 8 * math.Sqrt(float64(pool.Ed()))

	streamed := &inflightSource{PoolSource: shard}
	cases := []struct {
		name     string
		src      dataset.PoolSource
		inflight *inflightSource // under src when the source streams
	}{
		{"matrix", dataset.NewMatrixSource(pool.X), nil},
		{"shard", streamed, streamed},
	}
	for _, tc := range cases {
		for _, ranks := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, ranks), func(t *testing.T) {
				ctx := context.Background()
				free, _ := oldHarness(t, ranks, labeled, tc.src, pool.H, b, base)
				o := base
				o.Exclude = free[:2]
				want, wantZ := oldHarness(t, ranks, labeled, tc.src, pool.H, b, o)

				var calls atomic.Int64
				o.Relax.OnIteration = func(*firal.RelaxCheckpoint) { calls.Add(1) }
				res, err := SelectInProcess(ctx, ranks, labeled, tc.src, pool.H, b, o)
				if err != nil {
					t.Fatal(err)
				}
				tc.inflight.checkIdle(t, "after a full run")
				if !slices.Equal(res.Selected, want) {
					t.Fatalf("selected %v, old harness %v", res.Selected, want)
				}
				if !slices.EqualFunc(res.Relax.Z, wantZ, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					t.Fatal("RELAX weights z differ from the old harness's bits")
				}
				for _, i := range res.Selected {
					if slices.Contains(o.Exclude, i) {
						t.Fatalf("selected excluded index %d (exclude %v)", i, o.Exclude)
					}
				}
				if got, want := calls.Load(), int64(res.Relax.Iterations+1); got != want {
					t.Fatalf("OnIteration fired %d times, want %d (rank 0 only)", got, want)
				}
				if res.Eta != wantEta {
					t.Fatalf("Result.Eta = %v, want the default η %v", res.Eta, wantEta)
				}

				if ranks >= 2 {
					g := base
					g.EtaGrid = []float64{1, 10}
					if _, err := SelectInProcess(ctx, ranks, labeled, tc.src, pool.H, b, g); err == nil {
						t.Fatal("accepted an η grid at p ≥ 2")
					}
				}

				cctx, cancel := context.WithCancel(ctx)
				defer cancel()
				c := base
				c.Relax.FixedIterations = 50
				c.Relax.OnIteration = func(ck *firal.RelaxCheckpoint) {
					if ck.Iteration == 2 {
						cancel()
					}
				}
				if _, err := SelectInProcess(cctx, ranks, labeled, tc.src, pool.H, b, c); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled mid-RELAX: err = %v, want context.Canceled", err)
				}
				tc.inflight.checkIdle(t, "after a cancelled run")
			})
		}
	}
}

// failingSource fails every read touching rows [lo, hi) once `after` of
// them have gone through.
type failingSource struct {
	dataset.PoolSource
	lo, hi int
	after  int64
	n      atomic.Int64
}

var errInjected = errors.New("injected read failure")

func (s *failingSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if lo < s.hi && hi > s.lo && s.n.Add(1) > s.after {
		return errInjected
	}
	return s.PoolSource.ReadRows(lo, hi, dst)
}

// TestSelectInProcessReadFailure fails the reads of rank 1's row window
// (at one rank, the same rows) from the first, the middle or the last of
// them on, so the failure lands at the start, in RELAX or in ROUND's
// last step. Every run must return an error matching hessian.ErrPoolRead
// with the source error below it, instead of hanging, panicking or
// selecting.
func TestSelectInProcessReadFailure(t *testing.T) {
	labeled, pool := testSets(43, 20, multiBlockRows, 6, 3)
	shard := twoFileShard(t, pool.X, 61)
	o := firal.Options{Relax: firal.RelaxOptions{FixedIterations: 3, Seed: 9, Probes: 4}}
	for _, ranks := range []int{1, 2, 3} {
		lo, hi := mpi.Partition(pool.X.Rows, max(ranks, 2), 1)
		clean := &failingSource{PoolSource: shard, lo: lo, hi: hi, after: math.MaxInt64}
		if _, err := SelectInProcess(context.Background(), ranks, labeled, clean, pool.H, 5, o); err != nil {
			t.Fatal(err)
		}
		reads := clean.n.Load()
		for _, after := range []int64{0, reads / 2, reads - 1} {
			t.Run(fmt.Sprintf("p=%d/after=%d", ranks, after), func(t *testing.T) {
				src := &failingSource{PoolSource: shard, lo: lo, hi: hi, after: after}
				res, err := SelectInProcess(context.Background(), ranks, labeled, src, pool.H, 5, o)
				if !errors.Is(err, hessian.ErrPoolRead) || !errors.Is(err, errInjected) {
					t.Fatalf("got %v (result %v), want a pool read error over the injected one", err, res)
				}
			})
		}
	}
}

// TestSelectInProcessRelaxIterationSweeps pins the decode traffic of one
// RELAX iteration at every rank count: one more mirror-descent iteration
// makes the ranks together read the pool exactly 3 + k₁ + k₂ more times —
// the Σz blocks, Hp·W and the gradient, plus one sweep per lockstep
// iteration of the two block-CG solves, with no sweep for an initial
// residual. An unreachable tolerance makes each solve run its cap; at one
// probe the reported CG iterations are the k's.
func TestSelectInProcessRelaxIterationSweeps(t *testing.T) {
	labeled, pool := testSets(47, 20, multiBlockRows, 6, 3)
	for _, ranks := range []int{1, 2} {
		for _, tc := range []struct {
			name  string
			relax firal.RelaxOptions
		}{
			{"one probe", firal.RelaxOptions{Probes: 1, CGTol: 0.1, Seed: 9}},
			{"capped block", firal.RelaxOptions{Probes: 4, CGTol: 1e-300, CGMaxIter: 3, Seed: 9}},
		} {
			var rows [3]int64 // by FixedIterations
			var cg [3]int
			for iters := 1; iters <= 2; iters++ {
				counting := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
				o := firal.Options{Relax: tc.relax}
				o.Relax.FixedIterations = iters
				res, err := SelectInProcess(context.Background(), ranks, labeled, counting, pool.H, 5, o)
				if err != nil {
					t.Fatal(err)
				}
				rows[iters], cg[iters] = counting.RowsRead(), res.Relax.CGIterations
			}
			k := cg[2] - cg[1] // k₁ + k₂ of the second iteration
			if tc.relax.Probes > 1 {
				k = 2 * tc.relax.CGMaxIter
			}
			if got, want := rows[2]-rows[1], int64(3+k)*int64(pool.X.Rows); got != want {
				t.Fatalf("p=%d %s: the second RELAX iteration read %d rows, want %d (3 + %d CG sweeps)",
					ranks, tc.name, got, want, k)
			}
		}
	}
}

// TestSelectInProcessShardTruncated shrinks the pool's shard file to its
// 20-byte header after it was opened (and mapped): the selection must
// fail with ErrPoolRead at every rank count instead of killing the
// process or selecting from zeros. The multi-block pool spans many pages,
// where a mapping faults; the 150-row one fits in the page that holds the
// new end of file, where a mapping reads zeros.
func TestSelectInProcessShardTruncated(t *testing.T) {
	o := firal.Options{Relax: firal.RelaxOptions{FixedIterations: 2, Seed: 9, Probes: 4}}
	for _, n := range []int{multiBlockRows, 150} {
		labeled, pool := testSets(44, 20, n, 6, 3)
		for _, ranks := range []int{1, 2} {
			path := filepath.Join(t.TempDir(), "pool.shard")
			if err := dataset.PackShard(path, dataset.NewMatrixSource(pool.X)); err != nil {
				t.Fatal(err)
			}
			src, err := dataset.OpenShards(path)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := os.Truncate(path, 20); err != nil {
				t.Fatal(err)
			}
			if _, err := SelectInProcess(context.Background(), ranks, labeled, src, pool.H, 5, o); !errors.Is(err, hessian.ErrPoolRead) {
				t.Fatalf("n=%d p=%d: got %v, want ErrPoolRead", n, ranks, err)
			}
		}
	}
}

// TestReadFailureInLastRelaxIterationPublishesNothing fails the reads of
// rank 1's row window half-way through the last RELAX iteration. That
// iteration's weights then come from zero-filled rows, so neither its
// checkpoint nor the Done checkpoint (firald's warm start) may be
// published: the poll before the iteration's checkpoint must fail the
// round with ErrPoolRead first.
func TestReadFailureInLastRelaxIterationPublishesNothing(t *testing.T) {
	labeled, pool := testSets(45, 20, multiBlockRows, 6, 3)
	shard := twoFileShard(t, pool.X, 61)
	const iters = 3
	for _, ranks := range []int{1, 2} {
		lo, hi := mpi.Partition(pool.X.Rows, max(ranks, 2), 1)
		clean := &failingSource{PoolSource: shard, lo: lo, hi: hi, after: math.MaxInt64}
		var at []int64 // reads done when checkpoint Iteration 1, 2, … was published
		o := firal.Options{Relax: firal.RelaxOptions{FixedIterations: iters, Seed: 9, Probes: 4,
			OnIteration: func(ck *firal.RelaxCheckpoint) {
				if !ck.Done {
					at = append(at, clean.n.Load())
				}
			}}}
		if _, err := SelectInProcess(context.Background(), ranks, labeled, clean, pool.H, 5, o); err != nil {
			t.Fatal(err)
		}
		if len(at) != iters || at[iters-1]-at[iters-2] < 2 {
			t.Fatalf("p=%d: clean run published after reads %v", ranks, at)
		}
		src := &failingSource{PoolSource: shard, lo: lo, hi: hi, after: (at[iters-2] + at[iters-1]) / 2}
		var published []firal.RelaxCheckpoint
		o.Relax.OnIteration = func(ck *firal.RelaxCheckpoint) { published = append(published, *ck) }
		_, err := SelectInProcess(context.Background(), ranks, labeled, src, pool.H, 5, o)
		if !errors.Is(err, hessian.ErrPoolRead) || !errors.Is(err, errInjected) {
			t.Fatalf("p=%d: got %v, want a pool read error over the injected one", ranks, err)
		}
		for _, ck := range published {
			if ck.Done || ck.Iteration >= iters {
				t.Fatalf("p=%d: published checkpoint iteration %d (Done %v) after the read failure", ranks, ck.Iteration, ck.Done)
			}
		}
		if len(published) != iters-1 {
			t.Fatalf("p=%d: published %d checkpoints, want the %d before the failure", ranks, len(published), iters-1)
		}
	}
}

// TestMultiBlockBitsPinned pins the bits of a selection over a pool of
// multiBlockRows rows, 25 blocks of dataset.BlockRowsFor(multiBlockRows)
// = 512 rows at one rank (the last one ragged), so every sweep folds
// block partials on block lanes: the
// sha256 of the RELAX weights z, the CG iteration count and the
// selection. At d = 16 and c = 3 the sweeps run the dotu-order dots, the
// Gram's rank-4 update and AccumRows, and ROUND the fused norms. Any
// change to the bits of those kernels or to the block size shows here;
// re-record the pin only together with a declared change of the kernels'
// roundings or of the block-size rule.
func TestMultiBlockBitsPinned(t *testing.T) {
	const (
		wantZ  = "33dd0143cc545e662b24efe44f26e8efdd7aff363ebcb47573809df0ecb406a8"
		wantCG = 55
	)
	wantSel := []int{5340, 8384, 2481, 2360, 7632, 11558}
	labeled, pool := testSets(43, 20, multiBlockRows, 16, 3)
	o := firal.Options{Relax: firal.RelaxOptions{FixedIterations: 3, Seed: 5, Probes: 4}}
	res, err := SelectInProcess(context.Background(), 1, labeled, dataset.NewMatrixSource(pool.X), pool.H, 6, o)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range res.Relax.Z {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	gotZ := hex.EncodeToString(h.Sum(nil))
	if gotZ != wantZ || res.Relax.CGIterations != wantCG || !slices.Equal(res.Selected, wantSel) {
		t.Fatalf("z sha256 %s, %d CG iterations, selected %v; want %s, %d, %v",
			gotZ, res.Relax.CGIterations, res.Selected, wantZ, wantCG, wantSel)
	}
}

// TestShardBlockRows pins the one block-size rule at every rank count: a
// MakeStreamShard partition (blockRows 0, as SelectInProcess and the TCP
// ranks pass) sweeps blocks of dataset.BlockRowsFor its slice, gets
// read-ahead whenever that is more than one block (slices of 333 to 12,500
// rows here), and a CountingSource under its read-ahead sees exactly
// ⌈slice/rule⌉ reads of the slice's rows per sweep.
func TestShardBlockRows(t *testing.T) {
	ws := mat.NewWorkspace()
	for _, n := range []int{multiBlockRows, 1000} {
		labeled, pool := testSets(48, 20, n, 6, 3)
		for _, ranks := range []int{1, 2, 3} {
			for r := range ranks {
				lo, hi := mpi.Partition(n, ranks, r)
				rule := dataset.BlockRowsFor(hi - lo)
				counting := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
				sh := MakeStreamShard(labeled, counting, pool.H, 0, ranks, r)
				name := fmt.Sprintf("n=%d p=%d rank %d", n, ranks, r)
				if got := sh.PoolLocal.BlockRows(); got != rule {
					t.Fatalf("%s: %d-row slice sweeps %d-row blocks, want %d", name, hi-lo, got, rule)
				}
				if _, ok := sh.PoolLocal.(*hessian.Stream).Source().(*dataset.PrefetchSource); !ok {
					t.Fatalf("%s: the shard has no read-ahead", name)
				}
				for sweep := int64(1); sweep <= 2; sweep++ {
					hessian.BlockDiagSumInto(ws, sh.PoolLocal, nil, nil)
					if got, want := counting.Reads(), sweep*int64((hi-lo+rule-1)/rule); got != want {
						t.Fatalf("%s: %d reads after %d sweeps, want %d", name, got, sweep, want)
					}
					if got, want := counting.RowsRead(), sweep*int64(hi-lo); got != want {
						t.Fatalf("%s: %d rows read after %d sweeps, want %d", name, got, sweep, want)
					}
				}
			}
		}
	}
}
