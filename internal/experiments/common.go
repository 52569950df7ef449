// Package experiments contains the runnable drivers that regenerate every
// table and figure of the paper's evaluation (§ IV): accuracy comparisons
// (Figs. 2–3), CG preconditioner convergence (Fig. 1), RELAX sensitivity
// (Fig. 4), Exact-vs-Approx timing (Table VI), single-device breakdowns
// with theoretical peak estimates (Fig. 5), and strong/weak scaling over
// the MPI simulator (Figs. 6–7). The cmd/ binaries and the top-level
// benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	pub "repro"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// Selector resolves a strategy name through the public selector registry
// (case-insensitive, aliases included), so the experiment harnesses and
// cmd/ binaries share one source of truth for what strategies exist.
func Selector(name string, o pub.FIRALOptions) (pub.Selector, error) {
	return pub.New(name, pub.SelectorOptions{FIRAL: o})
}

// SynthSets generates a labeled set and pool for performance experiments:
// Gaussian features and reduced probability rows with c Fisher blocks
// (softmax over c+1 classes, last dropped). Accuracy experiments use
// internal/dataset instead; this generator is for timing runs where only
// shapes matter.
func SynthSets(nLabeled, nPool, d, c int, seed int64) (labeled, pool *hessian.Set) {
	rng := rnd.New(seed)
	theta := mat.NewDense(d, c+1)
	rng.Normal(theta.Data, 0, 1)
	gen := func(n int) *hessian.Set {
		x := mat.NewDense(n, d)
		rng.Normal(x.Data, 0, 1)
		for i := 0; i < n; i++ {
			mat.Scal(1/mat.Nrm2(x.Row(i)), x.Row(i))
		}
		h := hessian.ReduceProbs(softmax.Probabilities(nil, x, theta))
		return hessian.NewSet(x, h)
	}
	return gen(nLabeled), gen(nPool)
}

// Timed runs fn and returns its duration in seconds.
func Timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// PrintTable renders an aligned text table.
func PrintTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
}

// F formats a float compactly for tables.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// Secs formats seconds with four significant digits.
func Secs(v float64) string { return fmt.Sprintf("%.4gs", v) }
