package firal

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/rnd"
)

// State is the Selector view of one active-learning round: the remaining
// pool, the labeled set, and the current classifier's probabilities.
// Accessors return live views — do not modify them.
type State struct {
	poolProbs *mat.Dense   // full softmax, n×c
	pool      *hessian.Set // reduced probabilities (c−1 columns)
	labeled   *hessian.Set
	seed      int64
}

// NumPool returns the number of remaining pool points.
func (s *State) NumPool() int { return s.pool.X.Rows }

// Dim returns the feature dimension d.
func (s *State) Dim() int { return s.pool.X.Cols }

// Classes returns the number of classes c.
func (s *State) Classes() int { return s.poolProbs.Cols }

// PoolPoint returns pool point i's feature vector (view).
func (s *State) PoolPoint(i int) []float64 { return s.pool.X.Row(i) }

// PoolProbabilities returns the classifier's class probabilities for pool
// point i (view).
func (s *State) PoolProbabilities(i int) []float64 { return s.poolProbs.Row(i) }

// NumLabeled returns the labeled-set size.
func (s *State) NumLabeled() int { return s.labeled.X.Rows }

// LabeledPoint returns labeled point i's feature vector (view).
func (s *State) LabeledPoint(i int) []float64 { return s.labeled.X.Row(i) }

// Seed returns the per-round RNG seed stochastic selectors should use.
func (s *State) Seed() int64 { return s.seed }

// Selector chooses b pool indices (into the current pool ordering) to
// label. Implementations must return distinct, in-range indices, and must
// honor ctx: a long-running selection aborts with ctx.Err() when the
// context is cancelled or its deadline passes.
type Selector interface {
	// Name identifies the strategy in reports.
	Name() string
	// Select picks b distinct pool indices from the state.
	Select(ctx context.Context, s *State, b int) ([]int, error)
}

// FIRALOptions configure the FIRAL selectors.
type FIRALOptions struct {
	// Eta is the ROUND learning rate η; 0 uses the Theorem-1 default
	// 8·√(ẽd).
	Eta float64
	// EtaGrid, when non-empty, tunes η per round by maximizing
	// min_k λ_min((H)_k) over the grid (§ IV-A).
	EtaGrid []float64
	// Probes is the number of Hutchinson Rademacher vectors s (default
	// 10). Approx only.
	Probes int
	// CGTol is the CG relative-residual tolerance (default 0.1). Approx
	// only.
	CGTol float64
	// MaxRelaxIterations caps mirror descent (default 100).
	MaxRelaxIterations int
	// Seed seeds the Rademacher probes; 0 inherits the learner seed.
	Seed int64
}

func (o FIRALOptions) options(seed int64) firal.Options {
	if o.Seed != 0 {
		seed = o.Seed
	}
	return firal.Options{
		Relax: firal.RelaxOptions{
			MaxIter: o.MaxRelaxIterations,
			Probes:  o.Probes,
			CGTol:   o.CGTol,
			Seed:    seed,
		},
		Eta:     o.Eta,
		EtaGrid: o.EtaGrid,
	}
}

type funcSelector struct {
	name string
	fn   func(ctx context.Context, s *State, b int) ([]int, error)
}

func (f *funcSelector) Name() string { return f.name }

func (f *funcSelector) Select(ctx context.Context, s *State, b int) ([]int, error) {
	return f.fn(ctx, s, b)
}

// SelectorFunc builds a Selector from a function, for custom strategies.
func SelectorFunc(name string, fn func(ctx context.Context, s *State, b int) ([]int, error)) Selector {
	return &funcSelector{name: name, fn: fn}
}

// Random selects uniformly at random (§ IV-A baseline 1).
func Random() Selector {
	return SelectorFunc("Random", func(ctx context.Context, s *State, b int) ([]int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return baselines.Random(s.NumPool(), b, rnd.New(s.seed)), nil
	})
}

// KMeans clusters the pool into b clusters and selects the points nearest
// the centers (§ IV-A baseline 2).
func KMeans() Selector {
	return SelectorFunc("K-Means", func(ctx context.Context, s *State, b int) ([]int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return baselines.KMeans(s.pool.X, b, rnd.New(s.seed)), nil
	})
}

// Entropy selects the b most uncertain points by predictive entropy
// (§ IV-A baseline 3).
func Entropy() Selector {
	return SelectorFunc("Entropy", func(ctx context.Context, s *State, b int) ([]int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return baselines.Entropy(s.poolProbs, b), nil
	})
}

// Margin selects the b points with the smallest top-two probability
// margin (margin-based uncertainty sampling; not in the paper's
// comparison but a standard active-learning baseline).
func Margin() Selector {
	return SelectorFunc("Margin", func(ctx context.Context, s *State, b int) ([]int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return baselines.Margin(s.poolProbs, b), nil
	})
}

// LeastConfidence selects the b points whose predicted class has the
// lowest probability.
func LeastConfidence() Selector {
	return SelectorFunc("Least-Confidence", func(ctx context.Context, s *State, b int) ([]int, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return baselines.LeastConfidence(s.poolProbs, b), nil
	})
}

// ApproxFIRAL is the paper's contribution: the fast RELAX (Algorithm 2) +
// diagonal ROUND (Algorithm 3) selector. Cancelling the context aborts
// mid-RELAX (the mirror-descent loop and the inner CG solves both poll
// it).
func ApproxFIRAL(o FIRALOptions) Selector { return approxSelector("Approx-FIRAL", 1, o) }

// ExactFIRAL is the original Algorithm 1 (dense Hessians; use only at
// small n, d, c).
func ExactFIRAL(o FIRALOptions) Selector {
	return SelectorFunc("Exact-FIRAL", func(ctx context.Context, s *State, b int) ([]int, error) {
		p := firal.NewProblem(s.labeled, s.pool)
		res, err := firal.SelectExact(ctx, p, b, o.options(s.seed))
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	})
}

// DistributedFIRAL runs Approx-FIRAL sharded over `ranks` simulated
// distributed-memory ranks (one goroutine per rank, message-passing
// collectives as in § III-C). Selections match the serial ApproxFIRAL up
// to floating-point summation order, and are the serial ones at ranks ≤ 1.
// Cancellation is detected collectively, so all ranks abort together.
// η tuning is serial only: at ranks ≥ 2, Select with a non-empty
// FIRALOptions.EtaGrid returns an error.
func DistributedFIRAL(ranks int, o FIRALOptions) Selector {
	return approxSelector("Approx-FIRAL(dist)", ranks, o)
}

// approxSelector is the body of ApproxFIRAL and DistributedFIRAL: one
// distfiral.SelectInProcess over the state's pool on `ranks` ranks.
func approxSelector(name string, ranks int, o FIRALOptions) Selector {
	return SelectorFunc(name, func(ctx context.Context, s *State, b int) ([]int, error) {
		res, err := distfiral.SelectInProcess(ctx, ranks, s.labeled, dataset.NewMatrixSource(s.pool.X), s.pool.H, b, o.options(s.seed))
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	})
}
