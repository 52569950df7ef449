package firal

import (
	"context"
	"math"
	"testing"
)

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
