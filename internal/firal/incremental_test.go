package firal

import (
	"context"
	"math"
	"testing"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// checkBlocks compares the maintained (Σ⋄)_k and (Ho)_k blocks with
// from-scratch oracles, entry by entry, to 1e-8.
func checkBlocks(t *testing.T, inc *Incremental, sig, ho []*mat.Dense) {
	t.Helper()
	for k := range sig {
		for _, pair := range [][2]*mat.Dense{{inc.sig[k], sig[k]}, {inc.ho[k], ho[k]}} {
			for i, v := range pair[0].Data {
				if diff := math.Abs(v - pair[1].Data[i]); diff > 1e-8 {
					t.Fatalf("class %d: maintained block diverges from the oracle by %g", k, diff)
				}
			}
		}
	}
}

// testIncremental builds a problem, runs a short RELAX, and captures the
// incremental state at its weights.
func testIncremental(t *testing.T, seed int64, nLabeled, nPool, d, c, b int) (*Incremental, *Problem, []float64) {
	t.Helper()
	p := testProblem(seed, nLabeled, nPool, d, c)
	relax, err := RelaxFast(context.Background(), p, b, RelaxOptions{
		FixedIterations: 6, Probes: 4, CGMaxIter: 30, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(p, relax.Z, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return inc, p, relax.Z
}

// TestWarmStartUniformMatchesCold pins the WarmStart contract: seeding
// mirror descent with the uniform distribution must reproduce the cold
// solve bit for bit (n a power of two makes the normalization exact), so
// a warm-started round on an unchanged pool selects identically.
func TestWarmStartUniformMatchesCold(t *testing.T) {
	p := testProblem(7, 12, 128, 8, 3)
	opts := RelaxOptions{FixedIterations: 8, Probes: 4, CGMaxIter: 30, Seed: 7}
	cold, err := RelaxFast(context.Background(), p, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.WarmStart = uniformSimplex(p.N())
	warm, err := RelaxFast(context.Background(), p, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Z {
		if cold.Z[i] != warm.Z[i] {
			t.Fatalf("weight %d: cold %v != warm %v", i, cold.Z[i], warm.Z[i])
		}
	}
	rc, err := RoundFast(p, cold.Z, 4, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RoundFast(p, warm.Z, 4, RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rc.Selected {
		if rc.Selected[i] != rw.Selected[i] {
			t.Fatalf("selection %d: cold picked %d, warm picked %d", i, rc.Selected[i], rw.Selected[i])
		}
	}
}

// TestWarmStartValidation covers the option's error contract.
func TestWarmStartValidation(t *testing.T) {
	p := testProblem(9, 8, 40, 6, 3)
	for name, ws := range map[string][]float64{
		"wrong length": make([]float64, 7),
		"negative":     append(make([]float64, p.N()-1), -1),
		"zero sum":     make([]float64, p.N()),
	} {
		if _, err := RelaxFast(context.Background(), p, 2, RelaxOptions{
			FixedIterations: 1, Probes: 2, WarmStart: ws,
		}); err == nil {
			t.Errorf("%s warm start accepted", name)
		}
	}
}

// TestIncrementalAddLabelMatchesRefactor pins the label event: after
// AddLabel, the maintained blocks must match from-scratch blocks with the
// labeled point folded in.
func TestIncrementalAddLabelMatchesRefactor(t *testing.T) {
	const d, c, b = 9, 4, 3
	inc, p, z := testIncremental(t, 11, 15, 120, d, c, b)
	cc := p.C() // reduced class count: c−1 Fisher blocks

	x := make([]float64, d)
	h := make([]float64, cc)
	for j := range x {
		x[j] = 0.3 * float64(j+1)
	}
	for k := range h {
		h[k] = 0.08 + 0.03*float64(k)
	}
	inc.AddLabel(x, h)

	sig := p.SigmaBlocks(z)
	ho := make([]*mat.Dense, cc)
	for k, lab := range p.labeledBlocks() {
		gamma := h[k] * (1 - h[k])
		sig[k].AddOuter(gamma, x)
		ho[k] = mat.NewDense(d, d)
		ho[k].CopyFrom(lab)
		ho[k].AddOuter(gamma, x)
	}
	checkBlocks(t, inc, sig, ho)
}

// TestIncrementalTombstoneMatchesScratch pins the removal event: after a
// tombstone the maintained blocks match a from-scratch build at the
// zeroed weights, and the next delta round selects exactly what a
// from-scratch round with the row excluded selects.
func TestIncrementalTombstoneMatchesScratch(t *testing.T) {
	const d, c, b = 9, 4, 3
	inc, p, z := testIncremental(t, 13, 15, 120, d, c, b)

	const gone = 17
	if err := inc.Tombstone(gone); err != nil {
		t.Fatal(err)
	}
	if err := inc.Tombstone(gone); err != nil { // idempotent
		t.Fatal(err)
	}

	z2 := append([]float64(nil), z...)
	z2[gone] = 0
	checkBlocks(t, inc, p.SigmaBlocks(z2), p.labeledBlocks())

	got, err := inc.Select(context.Background(), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RoundFast(p, z2, b, RoundOptions{Eta: inc.Eta(), Exclude: []int{gone}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("delta round picked %v, scratch picked %v", got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("selection %d: delta picked %d, scratch picked %d", i, got.Selected[i], want.Selected[i])
		}
	}
	for _, s := range got.Selected {
		if s == gone {
			t.Fatalf("tombstoned row %d was selected", gone)
		}
	}
}

// TestIncrementalAppendMatchesScratch is the acceptance property at test
// scale: grow the pool, run the delta round, and demand the selections
// match a from-scratch RELAX-free round at the reprojected weights.
func TestIncrementalAppendMatchesScratch(t *testing.T) {
	const d, c, b = 9, 4, 3
	const nOld, nNew = 120, 150
	// One grown problem; the base pool is its first nOld rows.
	full := testProblem(19, 15, nNew, d, c)
	fullSet := full.Pool.(*hessian.Set)
	base := NewProblem(full.Labeled, hessian.NewSet(
		fullSet.X.RowSlice(0, nOld), fullSet.H.RowSlice(0, nOld)))

	relax, err := RelaxFast(context.Background(), base, b, RelaxOptions{
		FixedIterations: 6, Probes: 4, CGMaxIter: 30, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(base, relax.Z, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendRows(full.Pool); err != nil {
		t.Fatal(err)
	}

	z2 := ReprojectSimplex(relax.Z, nNew)
	var sum float64
	for _, v := range inc.Z() {
		sum += v
	}
	if math.Abs(sum-float64(b)) > 1e-10 {
		t.Fatalf("reprojected z⋄ sums to %g, want %d", sum, b)
	}

	got, err := inc.Select(context.Background(), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RoundFast(full, z2, b, RoundOptions{Eta: inc.Eta()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Selected) == 0 || len(got.Selected) != len(want.Selected) {
		t.Fatalf("delta round picked %v, scratch picked %v", got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("selection %d: delta picked %d, scratch picked %d", i, got.Selected[i], want.Selected[i])
		}
	}

	// The round is repeatable: the maintained blocks were read, not
	// consumed.
	again, err := inc.Select(context.Background(), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Selected {
		if got.Selected[i] != again.Selected[i] {
			t.Fatalf("repeat selection %d: %d then %d", i, got.Selected[i], again.Selected[i])
		}
	}
}

// TestIncrementalSelectMatchesRoundFast pins the shared constructor: a
// delta round straight after NewIncremental builds its state from the
// same blocks RoundFast assembles at the same weights, so every
// selection, ν and objective agrees bit for bit, serial and with four
// workers.
func TestIncrementalSelectMatchesRoundFast(t *testing.T) {
	prev := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prev)
	for _, workers := range []int{1, 4} {
		parallel.SetMaxWorkers(workers)
		for _, sh := range []struct{ d, c, b int }{{9, 4, 3}, {16, 6, 5}, {24, 3, 8}} {
			inc, p, z := testIncremental(t, int64(31+sh.d), 15, 120, sh.d, sh.c, sh.b)
			got, err := inc.Select(context.Background(), SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := RoundFast(p, z, sh.b, RoundOptions{Eta: inc.Eta()})
			if err != nil {
				t.Fatal(err)
			}
			g, w := got.Round, want
			if len(g.Selected) != len(w.Selected) || len(g.Nu) != len(w.Nu) || len(g.Objectives) != len(w.Objectives) {
				t.Fatalf("workers=%d %+v: delta round %v, RoundFast %v", workers, sh, g.Selected, w.Selected)
			}
			for i := range w.Selected {
				if g.Selected[i] != w.Selected[i] || g.Nu[i] != w.Nu[i] || g.Objectives[i] != w.Objectives[i] {
					t.Fatalf("workers=%d %+v step %d: delta (%d, ν %v, obj %v) != RoundFast (%d, ν %v, obj %v)",
						workers, sh, i, g.Selected[i], g.Nu[i], g.Objectives[i],
						w.Selected[i], w.Nu[i], w.Objectives[i])
				}
			}
		}
	}
}

// TestIncrementalRefineRound exercises the Refine > 0 path: a
// warm-started RELAX runs, the maintained state is rebuilt at the new
// weights, and the subsequent delta round matches a scratch round there.
func TestIncrementalRefineRound(t *testing.T) {
	const d, c, b = 9, 4, 3
	inc, p, _ := testIncremental(t, 23, 15, 120, d, c, b)

	got, err := inc.Select(context.Background(), SelectOptions{
		Refine: 3,
		Relax:  RelaxOptions{Probes: 4, CGMaxIter: 30, Seed: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Relax == nil || got.Relax.Iterations != 3 {
		t.Fatalf("refine solve reported %+v", got.Relax)
	}
	want, err := RoundFast(p, inc.Z(), b, RoundOptions{Eta: inc.Eta()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("selection %d: refined picked %d, scratch picked %d", i, got.Selected[i], want.Selected[i])
		}
	}
}

// TestReprojectSimplex pins the reprojection arithmetic.
func TestReprojectSimplex(t *testing.T) {
	out := ReprojectSimplex([]float64{0.5, 0.5}, 4)
	for i, v := range out {
		if math.Abs(v-0.25) > 1e-15 {
			t.Fatalf("entry %d = %g, want 0.25", i, v)
		}
	}
	old := []float64{3, 1, 0, 2} // total 6
	out = ReprojectSimplex(old, 6)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-6) > 1e-12 {
		t.Fatalf("reprojection changed total mass: %g", sum)
	}
	if out[4] != 1 || out[5] != 1 { // total/n = 6/6
		t.Fatalf("new rows got %g, %g, want 1", out[4], out[5])
	}
	same := ReprojectSimplex(old, 4)
	same[0] = -1
	if old[0] != 3 {
		t.Fatal("same-size reprojection aliases its input")
	}
}

// TestIncrementalEventsZeroAlloc pins the warm event path: once the
// state is warm, AddLabel and Tombstone — the per-event block updates —
// allocate nothing, serial and with four workers engaged (the
// alloc-multicore CI job runs exactly this test at GOMAXPROCS=4).
func TestIncrementalEventsZeroAlloc(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const d, c, b = 24, 5, 5
	p := testProblem(41, 20, 500, d, c)
	z := make([]float64, p.N())
	mat.Fill(z, float64(b)/float64(p.N()))
	inc, err := NewIncremental(p, z, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, d)
	h := make([]float64, p.C())
	for j := range x {
		x[j] = 0.1 * float64(j+1)
	}
	for k := range h {
		h[k] = 0.15
	}
	inc.AddLabel(x, h)
	row := 0
	next := func() int { row++; return row - 1 }
	if err := inc.Tombstone(next()); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(50, func() {
		inc.AddLabel(x, h)
	}); allocs != 0 {
		t.Errorf("AddLabel allocates %.1f objects per call warm", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := inc.Tombstone(next()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Tombstone allocates %.1f objects per call warm", allocs)
	}

	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	if allocs := testing.AllocsPerRun(30, func() {
		inc.AddLabel(x, h)
	}); allocs != 0 {
		t.Errorf("AddLabel allocates %.1f objects per call at 4 workers", allocs)
	}
	if allocs := testing.AllocsPerRun(30, func() {
		if err := inc.Tombstone(next()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Tombstone allocates %.1f objects per call at 4 workers", allocs)
	}
}
