package distfiral

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// runRanks is mpi.Run failing the test when a rank panicked.
func runRanks(t testing.TB, p int, fn func(c *mpi.Comm)) []mpi.Stats {
	t.Helper()
	stats, err := mpi.Run(p, fn)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// runTransports is mpi.RunTransports failing the test when a rank
// panicked.
func runTransports(t testing.TB, ts []mpi.Transport, fn func(c *mpi.Comm)) {
	t.Helper()
	if _, err := mpi.RunTransports(ts, fn); err != nil {
		t.Fatal(err)
	}
}

// testSets builds a labeled set and a pool with class structure (reduced
// probabilities, as the FIRAL solvers require).
func testSets(seed int64, nLabeled, nPool, d, c int) (*hessian.Set, *hessian.Set) {
	rng := rnd.New(seed)
	means := mat.NewDense(c, d)
	for k := 0; k < c; k++ {
		rng.UnitVector(means.Row(k))
		mat.Scal(2, means.Row(k))
	}
	sample := func(n int) *mat.Dense {
		x := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			k := i % c
			rng.Normal(x.Row(i), 0, 0.4)
			mat.Axpy(1, means.Row(k), x.Row(i))
		}
		return x
	}
	theta := means.T()
	xo, xu := sample(nLabeled), sample(nPool)
	ho := hessian.ReduceProbs(softmax.Probabilities(nil, xo, theta))
	hu := hessian.ReduceProbs(softmax.Probabilities(nil, xu, theta))
	return hessian.NewSet(xo, ho), hessian.NewSet(xu, hu)
}

// residentShard shards a resident pool the way every caller does: a
// MakeStreamShard over zero-copy views of pool.X.
func residentShard(labeled, pool *hessian.Set, size, rank int) *Shard {
	return MakeStreamShard(labeled, dataset.NewMatrixSource(pool.X), pool.H, 0, size, rank)
}

func TestMakeStreamShardCoversPool(t *testing.T) {
	labeled, pool := testSets(1, 6, 23, 3, 3)
	for _, p := range []int{1, 2, 3, 5} {
		total := 0
		for r := 0; r < p; r++ {
			sh := residentShard(labeled, pool, p, r)
			total += sh.PoolLocal.N()
			if sh.PoolTotal != 23 {
				t.Fatalf("PoolTotal %d", sh.PoolTotal)
			}
		}
		if total != 23 {
			t.Fatalf("p=%d: shards cover %d points", p, total)
		}
	}
}

// TestDistributedRelaxMatchesSerial: with identical seeds and fixed
// iteration counts, the distributed RELAX must reproduce the serial z⋄ up
// to floating-point summation-order noise, for every paper-relevant rank
// count — from the uniform start and from a non-uniform warm start. At
// p=1 every collective is an identity, so the result must be the serial
// one bit for bit.
func TestDistributedRelaxMatchesSerial(t *testing.T) {
	labeled, pool := testSets(2, 8, 36, 3, 3)
	b := 5
	opts := firal.RelaxOptions{FixedIterations: 8, Seed: 11, Probes: 8, CGTol: 0.01}
	warm := opts
	warm.WarmStart = make([]float64, pool.N())
	for i := range warm.WarmStart {
		warm.WarmStart[i] = 1 + float64(i%5)
	}

	for _, tc := range []struct {
		name string
		opts firal.RelaxOptions
	}{{"uniform", opts}, {"warm", warm}} {
		serial, err := firal.RelaxFast(context.Background(), firal.NewProblem(labeled, pool), b, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4} {
			zGlobal := make([]float64, pool.N())
			var mu sync.Mutex
			runRanks(t, p, func(c *mpi.Comm) {
				sh := residentShard(labeled, pool, p, c.Rank())
				res, err := Relax(context.Background(), c, sh, b, tc.opts)
				if err != nil {
					t.Errorf("%s p=%d: %v", tc.name, p, err)
					return
				}
				mu.Lock()
				copy(zGlobal[sh.PoolOffset:sh.PoolOffset+sh.PoolLocal.N()], res.Z)
				mu.Unlock()
			})
			for i := range zGlobal {
				if p == 1 && math.Float64bits(zGlobal[i]) != math.Float64bits(serial.Z[i]) {
					t.Fatalf("%s p=1: z[%d] = %x serial %x, want identical bits",
						tc.name, i, math.Float64bits(zGlobal[i]), math.Float64bits(serial.Z[i]))
				}
				if math.Abs(zGlobal[i]-serial.Z[i]) > 1e-6*(1+math.Abs(serial.Z[i])) {
					t.Fatalf("%s p=%d: z[%d] = %g serial %g", tc.name, p, i, zGlobal[i], serial.Z[i])
				}
			}
		}
	}
}

// TestDistributedRoundMatchesSerial feeds the same z⋄ to the serial and
// distributed ROUND and demands identical selections, with ν and MinEigH
// bit-identical at p=1.
func TestDistributedRoundMatchesSerial(t *testing.T) {
	labeled, pool := testSets(3, 8, 30, 3, 3)
	b := 6
	prob := firal.NewProblem(labeled, pool)
	z := make([]float64, pool.N())
	rng := rnd.New(7)
	var sum float64
	for i := range z {
		z[i] = rng.Float64()
		sum += z[i]
	}
	mat.Scal(float64(b)/sum, z)

	serial, err := firal.RoundFast(prob, z, b, firal.RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(p int, got, want float64) bool {
		if p == 1 {
			return math.Float64bits(got) == math.Float64bits(want)
		}
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}

	for _, p := range []int{1, 2, 3, 4} {
		var selected []int
		var nus []float64
		var minEig float64
		var once sync.Once
		runRanks(t, p, func(c *mpi.Comm) {
			sh := residentShard(labeled, pool, p, c.Rank())
			zLocal := append([]float64(nil), z[sh.PoolOffset:sh.PoolOffset+sh.PoolLocal.N()]...)
			res, err := Round(context.Background(), c, sh, zLocal, b, 0)
			if err != nil {
				t.Errorf("p=%d: %v", p, err)
				return
			}
			once.Do(func() {
				selected = res.Selected
				nus = res.Nu
				minEig = res.MinEigH
			})
		})
		if len(selected) != len(serial.Selected) || len(nus) != len(serial.Nu) {
			t.Fatalf("p=%d: %d selections, %d ν vs %d, %d", p, len(selected), len(nus), len(serial.Selected), len(serial.Nu))
		}
		for i := range selected {
			if selected[i] != serial.Selected[i] {
				t.Fatalf("p=%d: selection %d: %d vs serial %d (%v vs %v)",
					p, i, selected[i], serial.Selected[i], selected, serial.Selected)
			}
		}
		for i := range nus {
			if !same(p, nus[i], serial.Nu[i]) {
				t.Fatalf("p=%d: ν[%d] = %v serial %v", p, i, nus[i], serial.Nu[i])
			}
		}
		if !same(p, minEig, serial.MinEigH) {
			t.Fatalf("p=%d: MinEigH %v serial %v", p, minEig, serial.MinEigH)
		}
	}
}

// TestDistributedRoundRejectsNonFiniteScore: on two mailbox ranks only
// rank 1 holds the point whose NaN feature makes its ROUND score NaN (the
// point and the rest of its four-row Gram group carry no RELAX weight, so
// Σ⋄ stays finite). Rank 0 sees only finite scores, yet both ranks must
// return ErrNonFinite: the argmax allreduce carries the failure.
func TestDistributedRoundRejectsNonFiniteScore(t *testing.T) {
	labeled, pool := testSets(5, 6, 24, 3, 3)
	x := pool.X.Clone()
	x.Set(12, 0, math.NaN())
	bad := hessian.NewSet(x, pool.H)
	z := make([]float64, bad.N())
	for i := range z {
		z[i] = 4 / float64(len(z))
	}
	for i := 12; i < 16; i++ {
		z[i] = 0
	}
	errs := make([]error, 2)
	runRanks(t, 2, func(c *mpi.Comm) {
		sh := residentShard(labeled, bad, 2, c.Rank())
		zLocal := z[sh.PoolOffset : sh.PoolOffset+sh.PoolLocal.N()]
		_, errs[c.Rank()] = Round(context.Background(), c, sh, zLocal, 4, 0)
	})
	for r, err := range errs {
		if !errors.Is(err, firal.ErrNonFinite) {
			t.Fatalf("rank %d: err = %v, want ErrNonFinite", r, err)
		}
	}
}

// TestDistributedNonFiniteSigmaIsTyped: on two mailbox ranks, a NaN pool
// feature or probability in rank 1's slice, or a NaN labeled feature (the
// labeled set is replicated, so every rank holds it), poisons the
// allreduced Σz blocks. Both ranks must return ErrNonFinite from RELAX
// and from ROUND, at the same point and without deadlocking.
func TestDistributedNonFiniteSigmaIsTyped(t *testing.T) {
	for _, pl := range []struct {
		name   string
		poison func(labeled, pool *hessian.Set)
	}{
		{"pool feature", func(_, pool *hessian.Set) { pool.X.Set(12, 0, math.NaN()) }},
		{"pool probability", func(_, pool *hessian.Set) { pool.H.Set(12, 1, math.NaN()) }},
		{"labeled feature", func(labeled, _ *hessian.Set) { labeled.X.Set(2, 1, math.NaN()) }},
	} {
		labeled, pool := testSets(6, 6, 24, 3, 3)
		pl.poison(labeled, pool)
		z := make([]float64, pool.N())
		for i := range z {
			z[i] = 4 / float64(len(z))
		}
		relaxErrs, roundErrs := make([]error, 2), make([]error, 2)
		runRanks(t, 2, func(c *mpi.Comm) {
			sh := residentShard(labeled, pool, 2, c.Rank())
			if pl.name != "labeled feature" && c.Rank() == 0 && sh.PoolOffset+sh.PoolLocal.N() > 12 {
				t.Errorf("%s: row 12 is in rank 0's slice", pl.name)
			}
			_, relaxErrs[c.Rank()] = Relax(context.Background(), c, sh, 4, firal.RelaxOptions{MaxIter: 3, Seed: 1})
			zLocal := z[sh.PoolOffset : sh.PoolOffset+sh.PoolLocal.N()]
			_, roundErrs[c.Rank()] = Round(context.Background(), c, sh, zLocal, 4, 0)
		})
		for r := range relaxErrs {
			if !errors.Is(relaxErrs[r], firal.ErrNonFinite) {
				t.Errorf("%s: rank %d Relax err = %v, want ErrNonFinite", pl.name, r, relaxErrs[r])
			}
			if !errors.Is(roundErrs[r], firal.ErrNonFinite) {
				t.Errorf("%s: rank %d Round err = %v, want ErrNonFinite", pl.name, r, roundErrs[r])
			}
		}
	}
}

// TestAllRanksAgreeOnSelection: the Selected slice must be identical on
// every rank (it is assembled from collectives only).
func TestAllRanksAgreeOnSelection(t *testing.T) {
	labeled, pool := testSets(4, 6, 24, 2, 3)
	b := 4
	p := 3
	results := make([][]int, p)
	runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		sel, _, _, err := Select(context.Background(), c, sh, b, 0, firal.RelaxOptions{FixedIterations: 5, Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		results[c.Rank()] = sel
	})
	for r := 1; r < p; r++ {
		if len(results[r]) != len(results[0]) {
			t.Fatalf("rank %d selection length differs", r)
		}
		for i := range results[r] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d disagrees: %v vs %v", r, results[r], results[0])
			}
		}
	}
}

// TestBudgetExceedsPool: with b > n the distributed round must select every
// pool point exactly once and stop.
func TestBudgetExceedsPool(t *testing.T) {
	labeled, pool := testSets(5, 6, 5, 2, 3)
	p := 2
	runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		z := make([]float64, sh.PoolLocal.N())
		mat.Fill(z, 1)
		res, err := Round(context.Background(), c, sh, z, 9, 0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(res.Selected) != 5 {
			t.Errorf("selected %d of 5 pool points", len(res.Selected))
		}
		seen := map[int]bool{}
		for _, i := range res.Selected {
			if seen[i] {
				t.Errorf("duplicate global index %d", i)
			}
			seen[i] = true
		}
	})
}

// TestCommStatsNonzero sanity-checks that the distributed path actually
// communicates (guards against accidentally serial fallbacks).
func TestCommStatsNonzero(t *testing.T) {
	labeled, pool := testSets(6, 6, 20, 2, 3)
	stats := runRanks(t, 3, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, 3, c.Rank())
		if _, _, _, err := Select(context.Background(), c, sh, 3, 0, firal.RelaxOptions{FixedIterations: 3, Seed: 1}); err != nil {
			t.Errorf("%v", err)
		}
	})
	for r, s := range stats {
		if s.SentBytes == 0 {
			t.Fatalf("rank %d sent no data", r)
		}
	}
}
