package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	pub "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// runAccuracy regenerates Fig. 2 (MNIST, CIFAR-10, imb-CIFAR-10,
// ImageNet-50, imb-ImageNet-50), Fig. 3 (Caltech-101, ImageNet-1k) and
// the Table V dataset summary.
func runAccuracy(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("accuracy", flag.ContinueOnError)
	var (
		set      = fs.String("set", "small", "dataset group: small (Fig. 2), large (Fig. 3), all")
		name     = fs.String("dataset", "", "run a single named dataset (overrides -set)")
		scale    = fs.Float64("scale", 0.1, "pool/eval size scale factor vs Table V")
		trials   = fs.Int("trials", 3, "trials for Random/K-Means (paper: 10)")
		seed     = fs.Int64("seed", 1, "master seed")
		table5   = fs.Bool("table5", false, "print the Table V dataset summary and exit")
		selector = fs.String("selectors", "", "comma-separated selector subset (default: paper's five)")
		probes   = fs.Int("probes", 10, "Rademacher probes s for Approx-FIRAL")
		cgtol    = fs.Float64("cgtol", 0.1, "CG tolerance for Approx-FIRAL")
		relaxIt  = fs.Int("relaxiters", 0, "cap on mirror-descent iterations (0 = paper default 100)")
		over     overrides
	)
	over.register(fs, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *table5 {
		printTableV(w)
		return nil
	}

	var cfgs []dataset.Config
	switch {
	case *name != "":
		var err error
		if cfgs, err = datasets(*name); err != nil {
			return err
		}
	case *set == "small":
		cfgs = []dataset.Config{dataset.MNIST(), dataset.CIFAR10(), dataset.ImbCIFAR10(),
			dataset.ImageNet50(), dataset.ImbImageNet50()}
	case *set == "large":
		cfgs = []dataset.Config{dataset.Caltech101(), dataset.ImageNet1k()}
	case *set == "all":
		cfgs = dataset.TableV()
	default:
		return usagef("unknown -set %q (valid: small, large, all)", *set)
	}
	over.apply(cfgs)

	opts := experiments.AccuracyOptions{
		Scale:  *scale,
		Trials: *trials,
		Seed:   *seed,
		FIRAL:  pub.FIRALOptions{Probes: *probes, CGTol: *cgtol, MaxRelaxIterations: *relaxIt},
	}
	if *selector != "" {
		opts.Selectors = strings.Split(*selector, ",")
	}
	for _, cfg := range cfgs {
		curves, err := experiments.RunAccuracy(ctx, cfg, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		experiments.PrintAccuracy(w, curves)
		fmt.Fprintln(w)
	}
	return nil
}

func printTableV(w io.Writer) {
	fmt.Fprintln(w, "# Table V — dataset summary")
	headers := []string{"name", "type", "#classes", "dim", "|Xo|", "|Xu|", "#rounds", "budget/round", "#eval"}
	var rows [][]string
	for _, c := range dataset.TableV() {
		typ := "balanced"
		if c.ImbalanceRatio > 1 {
			typ = fmt.Sprintf("imbalanced (%g:1)", c.ImbalanceRatio)
		}
		rows = append(rows, []string{
			c.Name, typ,
			fmt.Sprintf("%d", c.Classes),
			fmt.Sprintf("%d", c.Dim),
			fmt.Sprintf("%d", c.InitPerClass*c.Classes),
			fmt.Sprintf("%d", c.PoolSize),
			fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%d", c.Budget),
			fmt.Sprintf("%d", c.EvalSize),
		})
	}
	experiments.PrintTable(w, headers, rows)
}

// runCG regenerates Fig. 1 on CIFAR-10-like and ImageNet-1k-like
// problems.
func runCG(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cg", flag.ContinueOnError)
	var (
		name    = fs.String("dataset", "", "single dataset (default: CIFAR-10 and ImageNet-1k, as in Fig. 1)")
		scale   = fs.Float64("scale", 0.1, "pool size scale factor")
		seed    = fs.Int64("seed", 1, "seed")
		tol     = fs.Float64("tol", 1e-3, "CG termination tolerance for the recorded runs")
		maxIter = fs.Int("maxiter", 800, "CG iteration cap")
		condEd  = fs.Int("maxcond", 500, "max ẽd for dense condition-number computation (0 = skip)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfgs, err := datasets(*name, dataset.CIFAR10(), dataset.ImageNet1k())
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		res, err := experiments.RunCGConvergence(ctx, cfg, *scale, *seed, *tol, *maxIter, *condEd)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		experiments.PrintCGConvergence(w, res)
		fmt.Fprintln(w)
	}
	return nil
}

// runScaling regenerates Figs. 6 and 7 at the paper's rank counts, with
// measured per-phase times next to theoretical estimates.
func runScaling(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	var (
		step     = fs.String("step", "relax", "relax or round")
		mode     = fs.String("mode", "strong", "strong or weak")
		ranksStr = fs.String("ranks", "1,2,3,6,12", "rank counts to sweep")
		n        = fs.Int("n", 24000, "global pool size (strong)")
		nPerRank = fs.Int("nperrank", 2000, "pool points per rank (weak)")
		d        = fs.Int("d", 48, "feature dimension")
		c        = fs.Int("c", 10, "class count")
		s        = fs.Int("s", 10, "Rademacher probes (relax)")
		ncg      = fs.Int("ncg", 20, "fixed CG iterations per solve (relax)")
		b        = fs.Int("b", 3, "points selected when timing the round step")
		seed     = fs.Int64("seed", 1, "seed")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := oneOf("step", *step, "relax", "round"); err != nil {
		return err
	}
	if err := oneOf("mode", *mode, "strong", "weak"); err != nil {
		return err
	}
	ranks, err := parseInts("ranks", *ranksStr)
	if err != nil {
		return err
	}
	opts := experiments.ScalingOptions{
		Ranks: ranks, Strong: *mode == "strong",
		N: *n, NPerRank: *nPerRank, D: *d, C: *c,
		S: *s, NCG: *ncg, B: *b, Seed: *seed,
	}

	if *step == "relax" {
		points, err := experiments.RunRelaxScaling(ctx, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig. 6 — RELAX %s scaling (d=%d c=%d)", *mode, *d, *c)
		experiments.PrintScaling(w, title, []string{"precond", "cg", "gradient", "comm"}, points)
		return nil
	}
	points, err := experiments.RunRoundScaling(ctx, opts)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig. 7 — ROUND %s scaling (d=%d c=%d), per selected point", *mode, *d, *c)
	experiments.PrintScaling(w, title, []string{"eig", "objective", "comm", "other"}, points)
	return nil
}

// runSensitivity regenerates Fig. 4 on CIFAR-10-like and
// ImageNet-50-like problems.
func runSensitivity(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	var (
		name  = fs.String("dataset", "", "single dataset (default: CIFAR-10 and ImageNet-50, as in Fig. 4)")
		scale = fs.Float64("scale", 0.1, "pool size scale factor")
		seed  = fs.Int64("seed", 1, "seed")
		iters = fs.Int("iters", 40, "mirror-descent iterations to trace")
		exact = fs.Bool("exact", true, "include the exact RELAX trajectory when feasible")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfgs, err := datasets(*name, dataset.CIFAR10(), dataset.ImageNet50())
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		curves, err := experiments.RunSensitivity(ctx, cfg, experiments.SensitivityOptions{
			Scale: *scale, Seed: *seed, Iterations: *iters, IncludeExact: *exact,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		experiments.PrintSensitivity(w, cfg.Name, curves)
		fmt.Fprintln(w)
	}
	return nil
}

// runSingle regenerates Fig. 5: measured times next to theoretical peak
// estimates (the paper's paired columns).
func runSingle(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("single", flag.ContinueOnError)
	var (
		step   = fs.String("step", "relax", "relax or round")
		sweep  = fs.String("sweep", "d", "swept parameter: d or c")
		values = fs.String("values", "", "comma-separated sweep values (default: d→24,48,64; c→8,16,32)")
		dFix   = fs.Int("d", 24, "fixed d when sweeping c")
		cFix   = fs.Int("c", 12, "fixed c when sweeping d")
		n      = fs.Int("n", 20000, "pool size")
		s      = fs.Int("s", 10, "Rademacher probes (relax)")
		ncg    = fs.Int("ncg", 50, "fixed CG iterations per solve (relax)")
		seed   = fs.Int64("seed", 1, "seed")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := oneOf("step", *step, "relax", "round"); err != nil {
		return err
	}
	if err := oneOf("sweep", *sweep, "d", "c"); err != nil {
		return err
	}
	fixed, defaults := *cFix, "24,48,64"
	if *sweep == "c" {
		fixed, defaults = *dFix, "8,16,32"
	}
	if *values == "" {
		*values = defaults
	}
	vals, err := parseInts("values", *values)
	if err != nil {
		return err
	}
	opts := experiments.SingleDeviceOptions{N: *n, S: *s, NCG: *ncg, Seed: *seed}

	if *step == "relax" {
		rows, err := experiments.RunRelaxSweep(ctx, *sweep, vals, fixed, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig. 5 — RELAX solve, sweep over %s (n=%d, s=%d, nCG=%d)", *sweep, *n, *s, *ncg)
		experiments.PrintBreakdown(w, title, *sweep, []string{"precond", "cg", "gradient", "other"}, rows)
		return nil
	}
	rows, err := experiments.RunRoundSweep(ctx, *sweep, vals, fixed, opts)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig. 5 — ROUND solve, sweep over %s (n=%d)", *sweep, *n)
	experiments.PrintBreakdown(w, title, *sweep, []string{"eig", "objective", "other"}, rows)
	return nil
}

// runTime regenerates Table VI on ImageNet-50-like and Caltech-101-like
// problems, plus the analytic complexity Tables II and III.
func runTime(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("time", flag.ContinueOnError)
	var (
		name       = fs.String("dataset", "", "single dataset (default: ImageNet-50 and Caltech-101, as in Table VI)")
		scale      = fs.Float64("scale", 0.05, "pool size scale factor")
		seed       = fs.Int64("seed", 1, "seed")
		relaxIters = fs.Int("relaxiters", 5, "mirror-descent iterations timed in both solvers")
		tables     = fs.Bool("tables", false, "print analytic Tables II and III at paper scale and exit")
		// Exact-FIRAL at d=50, c=50 is out of reach of a laptop.
		over overrides
	)
	over.register(fs, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *tables {
		fmt.Fprint(w, perfmodel.FormatTableII(100, 50, 5000, 50, 50, 50, 10))
		fmt.Fprintln(w)
		fmt.Fprint(w, perfmodel.FormatTableIII(383, 1000))
		return nil
	}
	cfgs, err := datasets(*name, dataset.ImageNet50(), dataset.Caltech101())
	if err != nil {
		return err
	}
	over.apply(cfgs)

	var comparisons []*experiments.TimeComparison
	for _, cfg := range cfgs {
		tc, err := experiments.RunTableVI(ctx, cfg, *scale, *seed, *relaxIters)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		comparisons = append(comparisons, tc)
	}
	experiments.PrintTableVI(w, comparisons)
	return nil
}
