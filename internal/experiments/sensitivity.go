package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/firal"
)

// SensitivityCurve is one RELAX objective trajectory of Fig. 4.
type SensitivityCurve struct {
	Label      string
	Objectives []float64
}

// SensitivityOptions configure the Fig. 4 experiment.
type SensitivityOptions struct {
	Scale      float64
	Seed       int64
	Iterations int       // mirror-descent iterations to trace (paper: ~40)
	SValues    []int     // Rademacher counts to sweep (paper: 10, 20, 100)
	TolValues  []float64 // cgtol values to sweep (paper: 0.5, 0.1, 0.01, 0.001)
	// IncludeExact adds the exact RELAX trajectory (skipped automatically
	// when ẽd is too large).
	IncludeExact bool
	MaxExactEd   int
}

// RunSensitivity reproduces Fig. 4 on one dataset: the RELAX objective
// trace for the exact solver and for the fast solver at each probe count
// (fixed cgtol = 0.1) and each cgtol (fixed s = 10).
func RunSensitivity(ctx context.Context, cfg dataset.Config, o SensitivityOptions) ([]*SensitivityCurve, error) {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Iterations <= 0 {
		o.Iterations = 40
	}
	if len(o.SValues) == 0 {
		o.SValues = []int{10, 20, 100}
	}
	if len(o.TolValues) == 0 {
		o.TolValues = []float64{0.5, 0.1, 0.01, 0.001}
	}
	if o.MaxExactEd <= 0 {
		o.MaxExactEd = 600
	}
	ds := dataset.Generate(cfg.Scale(o.Scale), o.Seed)
	p, err := problemFromDataset(ds)
	if err != nil {
		return nil, err
	}
	b := cfg.Budget

	var curves []*SensitivityCurve
	if o.IncludeExact && p.Ed() <= o.MaxExactEd {
		res, err := firal.RelaxExact(ctx, p, b, firal.RelaxOptions{
			FixedIterations: o.Iterations,
		})
		if err != nil {
			return nil, err
		}
		curves = append(curves, &SensitivityCurve{Label: "Exact", Objectives: res.Objectives})
	}
	for _, s := range o.SValues {
		res, err := firal.RelaxFast(ctx, p, b, firal.RelaxOptions{
			FixedIterations: o.Iterations, Probes: s, CGTol: 0.1, Seed: o.Seed + int64(s),
		})
		if err != nil {
			return nil, err
		}
		curves = append(curves, &SensitivityCurve{
			Label:      fmt.Sprintf("Approx: s = %d", s),
			Objectives: res.Objectives,
		})
	}
	for _, tol := range o.TolValues {
		res, err := firal.RelaxFast(ctx, p, b, firal.RelaxOptions{
			FixedIterations: o.Iterations, Probes: 10, CGTol: tol, Seed: o.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
		curves = append(curves, &SensitivityCurve{
			Label:      fmt.Sprintf("Approx: cgtol = %g", tol),
			Objectives: res.Objectives,
		})
	}
	return curves, nil
}

// PrintSensitivity renders the Fig. 4 objective traces, one column per
// curve.
func PrintSensitivity(w io.Writer, dataset string, curves []*SensitivityCurve) {
	fmt.Fprintf(w, "# Fig. 4 — RELAX objective vs iteration on %s\n", dataset)
	headers := []string{"iter"}
	for _, c := range curves {
		headers = append(headers, c.Label)
	}
	iters := 0
	for _, c := range curves {
		if len(c.Objectives) > iters {
			iters = len(c.Objectives)
		}
	}
	var rows [][]string
	for i := 0; i < iters; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, c := range curves {
			if i < len(c.Objectives) {
				row = append(row, F(c.Objectives[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	PrintTable(w, headers, rows)
}
