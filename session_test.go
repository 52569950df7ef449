package firal_test

import (
	"context"
	"errors"
	"testing"
	"time"

	firal "repro"
)

// TestRunContextDefaultsToConfigSchedule: without WithRounds/WithBudget
// the session follows the Config's recorded schedule.
func TestRunContextDefaultsToConfigSchedule(t *testing.T) {
	cfg := smallConfig(20) // Rounds: 3, Budget: 8
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.RunContext(context.Background(), firal.Random())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != cfg.Rounds {
		t.Fatalf("got %d reports, want %d", len(reports), cfg.Rounds)
	}
	if len(reports[0].Selected) != cfg.Budget {
		t.Fatalf("round 1 selected %d, want %d", len(reports[0].Selected), cfg.Budget)
	}
}

func TestRunContextRequiresBudget(t *testing.T) {
	cfg := smallConfig(21)
	cfg.Rounds, cfg.Budget = 0, 0
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.RunContext(context.Background(), firal.Random()); !errors.Is(err, firal.ErrBadConfig) {
		t.Fatalf("missing budget not rejected: %v", err)
	}
}

func TestObserverStreamsEveryRound(t *testing.T) {
	l, err := firal.NewLearner(smallConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []int
	reports, err := l.RunContext(context.Background(), firal.Random(),
		firal.WithRounds(3), firal.WithBudget(5),
		firal.WithObserver(func(r *firal.RoundReport) {
			streamed = append(streamed, r.Round)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(reports) {
		t.Fatalf("observer saw %d rounds, session returned %d", len(streamed), len(reports))
	}
	for i, round := range streamed {
		if round != i+1 {
			t.Fatalf("observer round order %v", streamed)
		}
	}
}

func TestStopCriterionEndsSessionCleanly(t *testing.T) {
	l, err := firal.NewLearner(smallConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	// Target accuracy 0 fires after the first round: any accuracy ≥ 0.
	reports, err := l.RunContext(context.Background(), firal.Random(),
		firal.WithRounds(10), firal.WithBudget(5),
		firal.WithStopCriterion(firal.TargetAccuracy(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("stop criterion did not fire after round 1: %d reports", len(reports))
	}
}

func TestMaxDurationStops(t *testing.T) {
	l, err := firal.NewLearner(smallConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	// An already-expired budget still finishes the running round, then
	// stops.
	reports, err := l.RunContext(context.Background(), firal.Random(),
		firal.WithRounds(10), firal.WithBudget(5),
		firal.WithStopCriterion(firal.MaxDuration(-time.Second)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("wall-clock criterion did not stop the session: %d reports", len(reports))
	}
}

func TestMaxDurationAnchorsAtFirstReport(t *testing.T) {
	// Time spent before the first report (learner construction, warm-up)
	// must not count against the budget: the deadline anchors when the
	// criterion first sees a report, not at construction.
	crit := firal.MaxDuration(80 * time.Millisecond)
	time.Sleep(100 * time.Millisecond) // longer than the whole budget
	if stop, _ := crit(&firal.RoundReport{}); stop {
		t.Fatal("budget charged for pre-run setup time")
	}
	time.Sleep(100 * time.Millisecond)
	if stop, _ := crit(&firal.RoundReport{}); !stop {
		t.Fatal("budget did not fire after elapsing from first report")
	}
}

func TestPoolExhaustedCriterionAndReportField(t *testing.T) {
	cfg := smallConfig(25)
	l, err := firal.NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastReason string
	exhausted := firal.PoolExhausted()
	reports, err := l.RunContext(context.Background(), firal.Random(),
		firal.WithRounds(0), // uncapped: run until the pool is gone
		firal.WithBudget(64),
		firal.WithStopCriterion(func(r *firal.RoundReport) (bool, string) {
			stop, reason := exhausted(r)
			if stop {
				lastReason = reason
			}
			return stop, reason
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if last.PoolRemaining != 0 {
		t.Fatalf("pool not exhausted: %d remaining", last.PoolRemaining)
	}
	if lastReason == "" {
		t.Fatal("PoolExhausted criterion never fired")
	}
	want := len(cfg.PoolX)
	var got int
	for _, r := range reports {
		got += len(r.Selected)
	}
	if got != want {
		t.Fatalf("selected %d of %d pool points", got, want)
	}
}

// TestSelectUnderCancelledContextReturnsPromptly: a Select entered with an
// already-cancelled context must return ctx.Err() without doing work.
func TestSelectUnderCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := firal.SelectorOptions{FIRAL: firal.FIRALOptions{MaxRelaxIterations: 100}}
	for _, name := range builtinSelectors {
		sel, err := firal.New(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		l, err := firal.NewLearner(smallConfig(27))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = l.StepContext(ctx, sel, 5)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s: cancelled Select took %s", name, elapsed)
		}
	}
}

// TestRunContextAbortsMidRelaxWithPartialReports: the context is cancelled
// while round 2's Approx-FIRAL selection is already inside the selector —
// after the session's loop-top and StepContext checks have passed — so the
// abort must come from the cancellation checks inside the RELAX mirror
// descent. The completed round-1 report is still returned.
func TestRunContextAbortsMidRelaxWithPartialReports(t *testing.T) {
	l, err := firal.NewLearner(smallConfig(28))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := firal.ApproxFIRAL(firal.FIRALOptions{MaxRelaxIterations: 50, Probes: 5})
	round := 0
	sel := firal.SelectorFunc("cancel-mid-select", func(ctx context.Context, s *firal.State, b int) ([]int, error) {
		round++
		if round == 2 {
			// Cancel after every pre-selection check has already passed;
			// only the RELAX-internal polling can observe it.
			cancel()
		}
		return inner.Select(ctx, s, b)
	})
	reports, err := l.RunContext(ctx, sel, firal.WithRounds(5), firal.WithBudget(6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("want 1 partial report from the completed round, got %d", len(reports))
	}
	if reports[0].Round != 1 || len(reports[0].Selected) != 6 {
		t.Fatalf("partial report corrupted: %+v", reports[0])
	}
}

// TestDistributedCancellationTerminatesAllRanks: the collective
// cancellation path of the distributed selector stops every rank without
// deadlocking.
func TestDistributedCancellationTerminatesAllRanks(t *testing.T) {
	l, err := firal.NewLearner(smallConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dist := firal.DistributedFIRAL(3, firal.FIRALOptions{MaxRelaxIterations: 50, Probes: 5})
	// Cancel only once the selection is underway, so the pre-selection
	// checks cannot short-circuit and the ranks themselves must agree to
	// stop.
	sel := firal.SelectorFunc("cancel-mid-dist", func(ctx context.Context, s *firal.State, b int) ([]int, error) {
		cancel()
		return dist.Select(ctx, s, b)
	})
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = l.StepContext(ctx, sel, 5)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed cancellation deadlocked")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", runErr)
	}
}
