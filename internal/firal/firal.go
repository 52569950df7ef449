package firal

import (
	"context"
	"math"
)

// Options configure a full FIRAL selection (RELAX + ROUND).
type Options struct {
	// Relax configures the RELAX solver.
	Relax RelaxOptions
	// Eta is the ROUND learning rate; 0 means DefaultEta (Theorem 1 with
	// ε = 1) unless EtaGrid is set.
	Eta float64
	// EtaGrid, when non-empty, tunes η as in § IV-A: the ROUND step is run
	// once per candidate η and the one maximizing min_k λ_min((H)_k) of
	// the selected batch wins.
	EtaGrid []float64
	// Exclude lists pool indices the ROUND step must not select (see
	// RoundOptions.Exclude) — the tombstone set of a multi-round session
	// whose earlier selections are still part of the pool.
	Exclude []int
}

// Result is a full FIRAL selection.
type Result struct {
	// Selected are the b chosen pool indices.
	Selected []int
	// Eta is the learning rate actually used by the ROUND step.
	Eta float64
	// Relax and Round carry the per-step reports.
	Relax *RelaxResult
	Round *RoundResult
}

// SelectApprox runs Approx-FIRAL (Algorithm 2 + Algorithm 3) to pick b
// pool points. Cancelling the context aborts mid-RELAX or between ROUND
// candidates with ctx.Err().
func SelectApprox(ctx context.Context, p *Problem, b int, o Options) (*Result, error) {
	relax, err := RelaxFast(ctx, p, b, o.Relax)
	if err != nil {
		return nil, err
	}
	return roundWithTuning(ctx, p, relax, b, o, RoundFast)
}

// SelectExact runs Exact-FIRAL (Algorithm 1) to pick b pool points.
func SelectExact(ctx context.Context, p *Problem, b int, o Options) (*Result, error) {
	relax, err := RelaxExact(ctx, p, b, o.Relax)
	if err != nil {
		return nil, err
	}
	return roundWithTuning(ctx, p, relax, b, o, RoundExact)
}

type roundRunner func(p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error)

// roundWithTuning runs the ROUND step, optionally sweeping EtaGrid and
// keeping the η that maximizes min_k λ_min((H)_k) (§ IV-A). The context
// is checked before each candidate η.
func roundWithTuning(ctx context.Context, p *Problem, relax *RelaxResult, b int, o Options, run roundRunner) (*Result, error) {
	etas := o.EtaGrid
	if len(etas) == 0 {
		eta := o.Eta
		if eta <= 0 {
			eta = p.DefaultEta()
		}
		etas = []float64{eta}
	}
	var best *RoundResult
	bestEta := 0.0
	bestCrit := math.Inf(-1)
	for _, eta := range etas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		round, err := run(p, relax.Z, b, RoundOptions{Eta: eta, Exclude: o.Exclude})
		if err != nil {
			return nil, err
		}
		if round.MinEigH > bestCrit {
			best, bestEta, bestCrit = round, eta, round.MinEigH
		}
	}
	return &Result{
		Selected: best.Selected,
		Eta:      bestEta,
		Relax:    relax,
		Round:    best,
	}, nil
}
