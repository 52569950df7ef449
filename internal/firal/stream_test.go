package firal

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/timing"
)

// streamProblem rebuilds a resident test problem with its pool served
// through a Stream over the given block size.
func streamProblem(p *Problem, blockRows int) *Problem {
	pool := p.ResidentPool()
	stream := hessian.NewStream(dataset.NewMatrixSource(pool.X), pool.H, blockRows)
	return NewProblem(p.Labeled, stream)
}

// TestScoresStreamMatchesResident is the ROUND block-boundary property
// test: rescoring a pool through ragged streaming blocks must match the
// resident single-sweep oracle.
func TestScoresStreamMatchesResident(t *testing.T) {
	p := testProblem(41, 12, 397, 9, 4) // 397 prime: ragged against every block size
	z := make([]float64, p.N())
	mat.Fill(z, 5/float64(p.N()))
	st, err := testRoundState(p, z, 5, p.DefaultEta(), timing.New())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, p.N())
	st.Scores(p.Pool, want)

	for _, bs := range []int{1, 32, 100, 396, 397, 512} {
		sp := streamProblem(p, bs)
		got := make([]float64, p.N())
		st.Scores(sp.Pool, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("bs=%d: score %d = %g, resident oracle %g", bs, i, got[i], want[i])
			}
		}
	}
}

// TestSelectApproxStreamMatchesResident runs the full Approx-FIRAL
// selection (RELAX + ROUND) over a streamed pool with an awkward block
// size and requires the identical batch the resident solver picks.
func TestSelectApproxStreamMatchesResident(t *testing.T) {
	p := testProblem(43, 10, 203, 7, 3)
	opts := Options{Relax: RelaxOptions{FixedIterations: 4, Seed: 9}}
	want, err := SelectApprox(context.Background(), p, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp := streamProblem(p, 48) // 203 = 4×48 + 11: ragged tail
	got, err := SelectApprox(context.Background(), sp, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("streamed selection picked %d points, resident %d", len(got.Selected), len(want.Selected))
	}
	for i := range want.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("selection %d: streamed %d, resident %d", i, got.Selected[i], want.Selected[i])
		}
	}
}

// TestSelectExactRequiresResidentPool pins the exact-solver contract:
// Algorithm 1 assembles dense pool Hessians and must refuse a streaming
// pool with ErrResidentPool instead of panicking deep in the dense path.
// Covered twice: a Stream over a resident matrix (the cheap wrapper case)
// and a Stream over a streaming-ONLY source (no Resident fast path, the
// out-of-core case) — the CountingSource additionally proves the exact
// solvers bail out before touching a single row.
func TestSelectExactRequiresResidentPool(t *testing.T) {
	p := testProblem(44, 8, 40, 5, 3)
	pool := p.ResidentPool()
	counting := dataset.NewCountingSource(dataset.NewMatrixSource(pool.X))
	for name, sp := range map[string]*Problem{
		"resident-backed": streamProblem(p, 16),
		"streaming-only":  NewProblem(p.Labeled, hessian.NewStream(counting, pool.H, 16)),
	} {
		if _, err := SelectExact(context.Background(), sp, 3, Options{}); !errors.Is(err, ErrResidentPool) {
			t.Fatalf("%s: SelectExact err = %v, want ErrResidentPool", name, err)
		}
		if _, err := RelaxExact(context.Background(), sp, 3, RelaxOptions{}); !errors.Is(err, ErrResidentPool) {
			t.Fatalf("%s: RelaxExact err = %v, want ErrResidentPool", name, err)
		}
		if _, err := RoundExact(sp, make([]float64, sp.N()), 3, RoundOptions{}); !errors.Is(err, ErrResidentPool) {
			t.Fatalf("%s: RoundExact err = %v, want ErrResidentPool", name, err)
		}
	}
	if counting.Reads() != 0 {
		t.Fatalf("exact solvers decoded %d blocks from a streaming pool before refusing", counting.Reads())
	}
}

// TestSolverScratchPoolAllocs pins the per-call setup pooling: once the
// free-list scratch is warm, a full RelaxFast call allocates only
// its escaping outputs (result struct, timings, z) and a full RoundFast
// call additionally pays the input-dependent eigendecompositions — far
// below the pre-pooling cost of rebuilding every hoisted buffer, the
// workspace, the preconditioner storage, and the round state per call.
// The bounds are generous (~1.6× measured) so shape changes in the
// escaping results don't flake, while reintroducing per-call setup
// (dozens of buffers) trips them immediately.
func TestSolverScratchPoolAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p := testProblem(5, 15, 400, 16, 5)
	relax := func() {
		if _, err := RelaxFast(context.Background(), p, 4, RelaxOptions{FixedIterations: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	relax()
	relax()
	if allocs := testing.AllocsPerRun(10, relax); allocs > 40 {
		t.Errorf("warm RelaxFast allocates %.0f objects per call; want ≤ 40 (measured 25 when pooled)", allocs)
	}

	z := make([]float64, p.N())
	mat.Fill(z, 4/float64(p.N()))
	round := func() {
		if _, err := RoundFast(p, z, 4, RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs > 170 {
		t.Errorf("warm RoundFast allocates %.0f objects per call; want ≤ 170 (measured 104 when pooled)", allocs)
	}
}
