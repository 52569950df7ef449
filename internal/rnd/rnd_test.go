package rnd

import (
	"math"
	"testing"
)

func TestRademacherOnlyPlusMinusOne(t *testing.T) {
	s := New(1)
	v := make([]float64, 1000)
	s.Rademacher(v)
	plus := 0
	for _, x := range v {
		switch x {
		case 1:
			plus++
		case -1:
		default:
			t.Fatalf("non-Rademacher value %g", x)
		}
	}
	// Roughly balanced (±5σ).
	if plus < 340 || plus > 660 {
		t.Fatalf("unbalanced Rademacher: %d/1000 positive", plus)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(2)
	v := make([]float64, 20000)
	s.Normal(v, 3, 2)
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var varr float64
	for _, x := range v {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(v) - 1)
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("mean %g", mean)
	}
	if math.Abs(varr-4) > 0.3 {
		t.Fatalf("variance %g", varr)
	}
}

func TestUnitVectorNorm(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 5, 50} {
		v := make([]float64, n)
		s.UnitVector(v)
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		if math.Abs(norm-1) > 1e-12 {
			t.Fatalf("dim %d: norm² = %g", n, norm)
		}
	}
}

func TestChoiceDistinct(t *testing.T) {
	s := New(4)
	sel := s.Choice(20, 10)
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 20 || seen[i] {
			t.Fatalf("bad choice %v", sel)
		}
		seen[i] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(2,3) should panic")
		}
	}()
	s.Choice(2, 3)
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	s := New(5)
	w := []float64{0, 0, 1, 0}
	for trial := 0; trial < 50; trial++ {
		if got := s.WeightedChoice(w); got != 2 {
			t.Fatalf("weighted choice picked %d", got)
		}
	}
	// All-zero weights fall back to uniform without panicking.
	if got := s.WeightedChoice([]float64{0, 0}); got < 0 || got > 1 {
		t.Fatalf("fallback choice %d", got)
	}
	// Negative weights are ignored.
	if got := s.WeightedChoice([]float64{-5, 1}); got != 1 {
		t.Fatalf("negative weight selected: %d", got)
	}
}
