package firal_test

import (
	"context"
	"math"
	"slices"
	"testing"

	firal "repro"
)

func smallConfig(seed int64) firal.Config {
	s := firal.Synthetic{
		Name: "unit", Classes: 4, Dim: 8, PoolSize: 160, EvalSize: 200,
		InitPerClass: 1, Rounds: 3, Budget: 8, Separation: 1.6,
	}
	return s.Generate(seed)
}

func TestNewLearnerValidation(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := firal.NewLearner(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Classes = 1
	if _, err := firal.NewLearner(bad); err == nil {
		t.Fatal("accepted 1 class")
	}
	bad2 := cfg
	bad2.PoolY = bad2.PoolY[:3]
	if _, err := firal.NewLearner(bad2); err == nil {
		t.Fatal("accepted mismatched pool labels")
	}
	bad3 := cfg
	bad3.LabeledY = append([]int(nil), bad3.LabeledY...)
	bad3.LabeledY[0] = 99
	if _, err := firal.NewLearner(bad3); err == nil {
		t.Fatal("accepted out-of-range label")
	}
}

func TestLearnerStepBookkeeping(t *testing.T) {
	cfg := smallConfig(2)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startLabeled := l.LabeledCount()
	startPool := l.PoolRemaining()
	rep, err := l.StepContext(context.Background(), firal.Random(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.LabeledCount() != startLabeled+8 {
		t.Fatalf("labeled count %d", l.LabeledCount())
	}
	if l.PoolRemaining() != startPool-8 {
		t.Fatalf("pool remaining %d", l.PoolRemaining())
	}
	if rep.LabeledCount != l.LabeledCount() || rep.Round != 1 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Selected) != 8 {
		t.Fatalf("selected %d", len(rep.Selected))
	}
	if rep.PoolAccuracy <= 0 || rep.EvalAccuracy <= 0 {
		t.Fatalf("accuracies not recorded: %+v", rep)
	}
}

func TestSelectedIndicesAreOriginalAndUnique(t *testing.T) {
	cfg := smallConfig(3)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 4; r++ {
		rep, err := l.StepContext(context.Background(), firal.Random(), 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rep.Selected {
			if i < 0 || i >= len(cfg.PoolX) {
				t.Fatalf("index %d out of original pool range", i)
			}
			if seen[i] {
				t.Fatalf("point %d labeled twice across rounds", i)
			}
			seen[i] = true
		}
	}
}

func TestAllSelectorsRunOneRound(t *testing.T) {
	opts := firal.FIRALOptions{MaxRelaxIterations: 10, Probes: 5}
	selectors := []firal.Selector{
		firal.Random(),
		firal.KMeans(),
		firal.Entropy(),
		firal.Margin(),
		firal.LeastConfidence(),
		firal.ApproxFIRAL(opts),
		firal.ExactFIRAL(opts),
		firal.DistributedFIRAL(3, opts),
	}
	for _, sel := range selectors {
		cfg := smallConfig(4)
		l, err := firal.NewLearner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.StepContext(context.Background(), sel, 6)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(rep.Selected) != 6 {
			t.Fatalf("%s: selected %d", sel.Name(), len(rep.Selected))
		}
	}
}

func TestAccuracyImprovesWithLabels(t *testing.T) {
	cfg := smallConfig(5)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.RunContext(context.Background(), firal.ApproxFIRAL(firal.FIRALOptions{MaxRelaxIterations: 15, Probes: 5}), firal.WithRounds(3), firal.WithBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	if reports[2].EvalAccuracy < reports[0].EvalAccuracy-0.05 {
		t.Fatalf("accuracy regressed: %g → %g", reports[0].EvalAccuracy, reports[2].EvalAccuracy)
	}
	if reports[2].EvalAccuracy < 0.8 {
		t.Fatalf("final accuracy %g too low", reports[2].EvalAccuracy)
	}
}

// TestFIRALBeatsEntropyEarly mirrors the paper's headline observation
// (Fig. 2): at small label counts uncertainty sampling is the weakest
// method, while FIRAL is strong and stable. Averaged over seeds to damp
// run-to-run variance.
func TestFIRALBeatsEntropyEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy comparison is slow")
	}
	var firalAcc, entAcc float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		cfgF := smallConfig(100 + s)
		lf, err := firal.NewLearner(cfgF)
		if err != nil {
			t.Fatal(err)
		}
		repF, err := lf.RunContext(context.Background(), firal.ApproxFIRAL(firal.FIRALOptions{MaxRelaxIterations: 20}), firal.WithRounds(2), firal.WithBudget(6))
		if err != nil {
			t.Fatal(err)
		}
		firalAcc += repF[len(repF)-1].EvalAccuracy

		cfgE := smallConfig(100 + s)
		le, err := firal.NewLearner(cfgE)
		if err != nil {
			t.Fatal(err)
		}
		repE, err := le.RunContext(context.Background(), firal.Entropy(), firal.WithRounds(2), firal.WithBudget(6))
		if err != nil {
			t.Fatal(err)
		}
		entAcc += repE[len(repE)-1].EvalAccuracy
	}
	firalAcc /= trials
	entAcc /= trials
	if firalAcc < entAcc-0.02 {
		t.Fatalf("Approx-FIRAL (%.3f) should not trail Entropy (%.3f) at small label counts", firalAcc, entAcc)
	}
}

func TestDistributedMatchesSerialThroughPublicAPI(t *testing.T) {
	opts := firal.FIRALOptions{MaxRelaxIterations: 6, Probes: 5, Seed: 11}
	cfg := smallConfig(6)
	ls, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := ls.StepContext(context.Background(), firal.ApproxFIRAL(opts), 5)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repD, err := ld.StepContext(context.Background(), firal.DistributedFIRAL(3, opts), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range repS.Selected {
		if repS.Selected[i] != repD.Selected[i] {
			t.Fatalf("serial %v vs distributed %v", repS.Selected, repD.Selected)
		}
	}
}

// TestDistributedFIRALEtaGrid pins that FIRALOptions.EtaGrid is honoured
// or refused, never ignored: at one rank DistributedFIRAL tunes η over
// the grid exactly as ApproxFIRAL does, and at two ranks, where η tuning
// is not implemented, the selection fails instead of silently using the
// default η.
func TestDistributedFIRALEtaGrid(t *testing.T) {
	opts := firal.FIRALOptions{MaxRelaxIterations: 6, Probes: 5, Seed: 11, EtaGrid: []float64{1, 10, 100}}
	step := func(sel firal.Selector) (*firal.RoundReport, error) {
		l, err := firal.NewLearner(smallConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		return l.StepContext(context.Background(), sel, 5)
	}
	repA, err := step(firal.ApproxFIRAL(opts))
	if err != nil {
		t.Fatal(err)
	}
	repD, err := step(firal.DistributedFIRAL(1, opts))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(repA.Selected, repD.Selected) {
		t.Fatalf("one-rank DistributedFIRAL with an η grid selected %v, ApproxFIRAL %v", repD.Selected, repA.Selected)
	}
	if _, err := step(firal.DistributedFIRAL(2, opts)); err == nil {
		t.Fatal("two-rank DistributedFIRAL accepted an η grid it cannot tune")
	}
}

func TestSelectorFuncValidation(t *testing.T) {
	cfg := smallConfig(7)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dup := firal.SelectorFunc("dup", func(ctx context.Context, s *firal.State, b int) ([]int, error) {
		return []int{0, 0}, nil
	})
	if _, err := l.StepContext(context.Background(), dup, 2); err == nil {
		t.Fatal("duplicate selection not rejected")
	}
	oob := firal.SelectorFunc("oob", func(ctx context.Context, s *firal.State, b int) ([]int, error) {
		return []int{s.NumPool()}, nil
	})
	if _, err := l.StepContext(context.Background(), oob, 1); err == nil {
		t.Fatal("out-of-range selection not rejected")
	}
}

func TestStateAccessors(t *testing.T) {
	cfg := smallConfig(8)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := firal.SelectorFunc("probe", func(ctx context.Context, s *firal.State, b int) ([]int, error) {
		if s.NumPool() != len(cfg.PoolX) {
			t.Errorf("NumPool %d", s.NumPool())
		}
		if s.Dim() != 8 || s.Classes() != 4 {
			t.Errorf("Dim/Classes %d/%d", s.Dim(), s.Classes())
		}
		if s.NumLabeled() != 4 {
			t.Errorf("NumLabeled %d", s.NumLabeled())
		}
		if len(s.PoolPoint(0)) != 8 || len(s.LabeledPoint(0)) != 8 {
			t.Error("point accessors wrong length")
		}
		p := s.PoolProbabilities(0)
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("probabilities sum %g", sum)
		}
		return []int{0}, nil
	})
	if _, err := l.StepContext(context.Background(), probe, 1); err != nil {
		t.Fatal(err)
	}
}

func TestModelPublicInterface(t *testing.T) {
	cfg := smallConfig(9)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := l.Model()
	pred := m.Predict(cfg.EvalX[:5])
	if len(pred) != 5 {
		t.Fatalf("predictions %d", len(pred))
	}
	probs := m.Probabilities(cfg.EvalX[:5])
	if len(probs) != 5 || len(probs[0]) != 4 {
		t.Fatal("probabilities shape wrong")
	}
	if acc := m.Accuracy(cfg.EvalX, cfg.EvalY); acc <= 0 || acc > 1 {
		t.Fatalf("accuracy %g", acc)
	}
}

func TestTableVPublic(t *testing.T) {
	if len(firal.TableV()) != 7 {
		t.Fatal("TableV should list 7 benchmarks")
	}
	c := firal.Caltech101Like()
	if c.Classes != 101 || c.ImbalanceRatio != 10 {
		t.Fatalf("Caltech-101 config %+v", c)
	}
	scaled := firal.ImageNet1kLike().Scale(0.1)
	if scaled.PoolSize != 5000 {
		t.Fatalf("scaled pool %d", scaled.PoolSize)
	}
}
