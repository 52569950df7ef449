package firal

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
)

// TestSelectApproxBitsIndependentOfWorkers runs the same Approx-FIRAL
// selection at one to four workers and requires the bits of the 1-worker
// run: the RELAX weights z, and ROUND's selections, ν, objectives and
// MinEigH, on pools of one, a few and many row blocks. No kernel may split the summation of one element, or a
// session's selection would depend on how many workers its host (or a
// stricter concurrent session's limit) gave it.
func TestSelectApproxBitsIndependentOfWorkers(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	for _, tc := range []struct {
		p *Problem
		b int
	}{
		{testProblem(632, 20, 600, 32, 8), 5},
		{testProblem(633, 30, 1200, 64, 4), 6},
		// Ten blocks of 64 rows, the last ragged: from two workers on,
		// every sweep hands whole blocks to the workers.
		{streamProblem(testProblem(634, 20, 9*64+23, 16, 3), 64), 4},
	} {
		o := Options{Relax: RelaxOptions{FixedIterations: 4, Seed: 11, Probes: 8}}
		var want *Result
		for w := 1; w <= 4; w++ {
			parallel.SetMaxWorkers(w)
			res, err := SelectApprox(context.Background(), tc.p, tc.b, o)
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				want = res
				continue
			}
			name := fmt.Sprintf("n=%d d=%d w=%d", tc.p.N(), tc.p.D(), w)
			sameBitsOf(t, name+": z", res.Relax.Z, want.Relax.Z)
			sameBitsOf(t, name+": objective", res.Round.Objectives, want.Round.Objectives)
			sameBitsOf(t, name+": ν", res.Round.Nu, want.Round.Nu)
			sameBitsOf(t, name+": MinEigH", []float64{res.Round.MinEigH}, []float64{want.Round.MinEigH})
			if fmt.Sprint(res.Selected) != fmt.Sprint(want.Selected) {
				t.Fatalf("%s: selected %v, 1 worker %v", name, res.Selected, want.Selected)
			}
		}
	}
}

// sameBitsOf fails t unless got and want hold the same bits.
func sameBitsOf(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, 1 worker %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
