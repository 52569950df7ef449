package firal

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/softmax"
)

// Config describes an active-learning instance: an initial labeled set, an
// unlabeled pool whose true labels are revealed only when points are
// selected, and an optional held-out evaluation set.
type Config struct {
	// PoolX/PoolY are the unlabeled pool Xu and its oracle labels.
	PoolX [][]float64
	PoolY []int
	// LabeledX/LabeledY are the initial labeled set Xo.
	LabeledX [][]float64
	LabeledY []int
	// EvalX/EvalY are held-out evaluation data (may be empty).
	EvalX [][]float64
	EvalY []int
	// Classes is the number of classes c.
	Classes int
	// Lambda is the classifier's L2 penalty (0 → 1e-3).
	Lambda float64
	// Seed seeds stochastic selectors driven through this learner.
	Seed int64
	// Rounds and Budget are the default session schedule: RunContext uses
	// them when WithRounds / WithBudget are not supplied. The Synthetic
	// benchmarks populate them with the paper's Table V values.
	Rounds, Budget int
}

// RoundReport records one active-learning round.
type RoundReport struct {
	// Round is 1-based; LabeledCount is the label total after this round.
	Round        int
	LabeledCount int
	// PoolRemaining is the number of still-unlabeled points after this
	// round.
	PoolRemaining int
	// EvalCount is the evaluation-set size; 0 means no evaluation set was
	// configured and the Eval* accuracies are meaningless.
	EvalCount int
	// Selected holds the selected points' indices into the original pool.
	Selected []int
	// PoolAccuracy is the classifier accuracy on the full original pool
	// (the paper's "pool accuracy"); EvalAccuracy on the evaluation set;
	// BalancedEvalAccuracy weights every class equally (Fig. 3(B)).
	PoolAccuracy         float64
	EvalAccuracy         float64
	BalancedEvalAccuracy float64
	// SelectSeconds and TrainSeconds are wall-clock costs of this round.
	SelectSeconds float64
	TrainSeconds  float64
}

// Learner drives the batch active-learning loop of § IV-A: train the
// classifier on the labeled set, hand the pool to a Selector, reveal the
// selected labels, retrain, and report accuracies.
type Learner struct {
	classes int
	lambda  float64
	seed    int64
	// defaultRounds/defaultBudget are the Config schedule used by
	// RunContext when the caller passes no WithRounds / WithBudget.
	defaultRounds int
	defaultBudget int

	poolX    *mat.Dense // full original pool (accuracy target)
	poolY    []int
	alive    []int // original indices still unlabeled
	labeledX [][]float64
	labeledY []int
	evalX    *mat.Dense
	evalY    []int

	model *logreg.Model
	round int
}

// ErrBadConfig is returned when a Config is inconsistent.
var ErrBadConfig = errors.New("firal: invalid learner configuration")

// NewLearner validates the configuration and trains the initial
// classifier on the labeled set.
func NewLearner(cfg Config) (*Learner, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("%w: need at least 2 classes", ErrBadConfig)
	}
	if len(cfg.PoolX) == 0 || len(cfg.PoolX) != len(cfg.PoolY) {
		return nil, fmt.Errorf("%w: pool features/labels mismatch", ErrBadConfig)
	}
	if len(cfg.LabeledX) == 0 || len(cfg.LabeledX) != len(cfg.LabeledY) {
		return nil, fmt.Errorf("%w: labeled features/labels mismatch", ErrBadConfig)
	}
	if len(cfg.EvalX) != len(cfg.EvalY) {
		return nil, fmt.Errorf("%w: eval features/labels mismatch", ErrBadConfig)
	}
	for _, y := range cfg.PoolY {
		if y < 0 || y >= cfg.Classes {
			return nil, fmt.Errorf("%w: pool label out of range", ErrBadConfig)
		}
	}
	for _, y := range cfg.LabeledY {
		if y < 0 || y >= cfg.Classes {
			return nil, fmt.Errorf("%w: initial label out of range", ErrBadConfig)
		}
	}
	l := &Learner{
		classes:       cfg.Classes,
		lambda:        cfg.Lambda,
		seed:          cfg.Seed,
		defaultRounds: max(cfg.Rounds, 0),
		defaultBudget: max(cfg.Budget, 0),
		poolX:         mat.FromRows(cfg.PoolX),
		poolY:         append([]int(nil), cfg.PoolY...),
		labeledX:      cloneRows(cfg.LabeledX),
		labeledY:      append([]int(nil), cfg.LabeledY...),
		evalY:         append([]int(nil), cfg.EvalY...),
	}
	if len(cfg.EvalX) > 0 {
		l.evalX = mat.FromRows(cfg.EvalX)
	}
	l.alive = make([]int, len(cfg.PoolY))
	for i := range l.alive {
		l.alive[i] = i
	}
	if err := l.retrain(); err != nil {
		return nil, err
	}
	return l, nil
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func (l *Learner) retrain() error {
	x := mat.FromRows(l.labeledX)
	var warm *mat.Dense
	if l.model != nil {
		warm = l.model.Theta
	}
	m, err := logreg.Train(x, l.labeledY, l.classes, warm, logreg.Options{Lambda: l.lambda})
	if err != nil {
		return err
	}
	l.model = m
	return nil
}

// LabeledCount returns the current number of labeled samples.
func (l *Learner) LabeledCount() int { return len(l.labeledY) }

// PoolRemaining returns the number of still-unlabeled pool points.
func (l *Learner) PoolRemaining() int { return len(l.alive) }

// Model returns the current classifier.
func (l *Learner) Model() *Model { return &Model{inner: l.model, classes: l.classes} }

// state assembles the Selector view for the current pool and model.
func (l *Learner) state() *State {
	aliveX := mat.NewDense(len(l.alive), l.poolX.Cols)
	for r, i := range l.alive {
		copy(aliveX.Row(r), l.poolX.Row(i))
	}
	poolProbs := softmax.Probabilities(nil, aliveX, l.model.Theta)
	labX := mat.FromRows(l.labeledX)
	labProbs := softmax.Probabilities(nil, labX, l.model.Theta)
	return &State{
		poolProbs: poolProbs,
		pool:      hessian.NewSet(aliveX, hessian.ReduceProbs(poolProbs)),
		labeled:   hessian.NewSet(labX, hessian.ReduceProbs(labProbs)),
		seed:      l.seed + int64(l.round)*7919,
	}
}

// StepContext runs one active-learning round with the given selector and
// budget: select b points under the current model, reveal their labels,
// retrain, and report accuracies. Cancelling the context aborts the
// selection (mid-RELAX for the FIRAL selectors) with an error wrapping
// ctx.Err().
func (l *Learner) StepContext(ctx context.Context, sel Selector, b int) (*RoundReport, error) {
	if b <= 0 {
		return nil, fmt.Errorf("%w: non-positive budget", ErrBadConfig)
	}
	if len(l.alive) == 0 {
		return nil, errors.New("firal: pool exhausted")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.round++
	st := l.state()

	t0 := time.Now()
	picked, err := sel.Select(ctx, st, min(b, len(l.alive)))
	selectSecs := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("firal: selector %s: %w", sel.Name(), err)
	}
	if err := validateSelection(picked, len(l.alive)); err != nil {
		return nil, fmt.Errorf("firal: selector %s: %w", sel.Name(), err)
	}

	// Reveal labels and move points from pool to labeled set.
	report := &RoundReport{Round: l.round}
	chosen := make(map[int]bool, len(picked))
	for _, r := range picked {
		chosen[r] = true
		orig := l.alive[r]
		report.Selected = append(report.Selected, orig)
		l.labeledX = append(l.labeledX, append([]float64(nil), l.poolX.Row(orig)...))
		l.labeledY = append(l.labeledY, l.poolY[orig])
	}
	remaining := l.alive[:0]
	for r, orig := range l.alive {
		if !chosen[r] {
			remaining = append(remaining, orig)
		}
	}
	l.alive = remaining

	t1 := time.Now()
	if err := l.retrain(); err != nil {
		return nil, err
	}
	report.TrainSeconds = time.Since(t1).Seconds()
	report.SelectSeconds = selectSecs
	report.LabeledCount = len(l.labeledY)
	report.PoolRemaining = len(l.alive)
	report.PoolAccuracy = l.model.Accuracy(l.poolX, l.poolY)
	if l.evalX != nil {
		report.EvalCount = len(l.evalY)
		report.EvalAccuracy = l.model.Accuracy(l.evalX, l.evalY)
		report.BalancedEvalAccuracy = l.model.ClassBalancedAccuracy(l.evalX, l.evalY)
	}
	return report, nil
}

// RunContext drives an active-learning session: repeated StepContext
// rounds under the given selector, configured by functional options.
//
// The schedule defaults to the Config's Rounds/Budget; WithRounds and
// WithBudget override it, WithStopCriterion ends the session on policy
// (target accuracy, wall-clock budget, ...), and WithObserver streams
// each RoundReport as its round completes. The session always ends when
// the pool is exhausted.
//
// On context cancellation the reports of the rounds completed so far are
// returned together with an error wrapping ctx.Err(); a stop criterion
// firing is a clean end, not an error.
func (l *Learner) RunContext(ctx context.Context, sel Selector, opts ...RunOption) ([]*RoundReport, error) {
	rc := runConfig{rounds: l.defaultRounds, budget: l.defaultBudget}
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.budget <= 0 {
		return nil, fmt.Errorf("%w: non-positive budget (set Config.Budget or WithBudget)", ErrBadConfig)
	}
	var reports []*RoundReport
	for r := 0; (rc.rounds <= 0 || r < rc.rounds) && len(l.alive) > 0; r++ {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		rep, err := l.StepContext(ctx, sel, rc.budget)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		for _, observe := range rc.observers {
			observe(rep)
		}
		for _, criterion := range rc.stops {
			if stop, _ := criterion(rep); stop {
				return reports, nil
			}
		}
	}
	return reports, nil
}

func validateSelection(picked []int, n int) error {
	seen := make(map[int]bool, len(picked))
	for _, r := range picked {
		if r < 0 || r >= n {
			return fmt.Errorf("selected index %d out of range [0,%d)", r, n)
		}
		if seen[r] {
			return fmt.Errorf("selected index %d twice", r)
		}
		seen[r] = true
	}
	return nil
}

// Model is a trained multiclass logistic-regression classifier.
type Model struct {
	inner   *logreg.Model
	classes int
}

// Predict returns the most likely class of each row of x.
func (m *Model) Predict(x [][]float64) []int {
	return m.inner.Predict(mat.FromRows(x))
}

// Probabilities returns the class-probability rows for x.
func (m *Model) Probabilities(x [][]float64) [][]float64 {
	p := m.inner.Probabilities(mat.FromRows(x))
	out := make([][]float64, p.Rows)
	for i := range out {
		out[i] = append([]float64(nil), p.Row(i)...)
	}
	return out
}

// Accuracy returns the fraction of rows of x classified as y.
func (m *Model) Accuracy(x [][]float64, y []int) float64 {
	return m.inner.Accuracy(mat.FromRows(x), y)
}
