// Command firal runs batch active learning on user-supplied data: point
// features and (oracle) labels are read from CSV files, a selection
// strategy is applied for a number of rounds, and the selected indices
// plus per-round accuracies are reported. This is the downstream-user
// entry point; cmd/firal-paper reproduces the paper's experiments.
//
// Strategies are resolved through the package's selector registry
// (firal.New); `firal -select help` lists everything registered.
// Per-round results stream as each round completes, and Ctrl-C cancels
// the run mid-selection via context cancellation — already-completed
// rounds are still reported.
//
// CSV format: one point per row, comma-separated, every row the same
// width. With -labelcol -1 (default) the last column is the integer class
// label; a value ≥ 0 selects that column; -2 means no label column, which
// only -pack accepts. Cells must be numeric, optionally surrounded by
// spaces and one pair of double quotes; a non-numeric first row is
// treated as a header and skipped. All modes read CSV through
// dataset.CSVSource.
//
// Streaming selection: with -shards the pool is served block by block
// from memory-mapped float32 shard files (see dataset.ShardWriter for the
// format) instead of a resident CSV matrix, so it may exceed RAM. This
// mode runs one selection round — the production "which points should I
// get labeled next?" query — and prints the selected global row indices;
// there is no oracle to reveal labels, so no retraining loop. Pack a CSV
// into shards with -pack.
//
// Usage:
//
//	firal -pool pool.csv -labeled seed.csv -select approx-firal -rounds 3 -budget 10
//	firal -demo                       # run on a built-in synthetic dataset
//	firal -select help                # list registered strategies
//	firal -demo -target-acc 0.9      # stop once eval accuracy reaches 0.9
//	firal -pool pool.csv -labeled seed.csv -select random -csv
//	firal -pack pool.shard -pool pool.csv             # CSV → shard file
//	firal -shards pool.shard -labeled seed.csv -budget 10
//	firal -shards a.shard,b.shard -labeled seed.csv -select dist-firal -ranks 4
//
// Multi-process selection: with -peers each OS process is one rank of
// the distributed solver. Rank 0 listens on the -peers address and every
// process announces its -rank; selections are bit-identical to
// the in-process -ranks run over the same shards. With -op-timeout the
// run also survives rank failures (survivors agree on the dead set,
// re-shard, and resume from the last checkpoint). See examples/distributed.
//
//	firal -shards pool.shard -labeled seed.csv -select dist-firal \
//	      -peers host:9907 -ranks 3 -rank $R -op-timeout 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"

	pub "repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("firal: ")
	var (
		poolPath  = flag.String("pool", "", "CSV of pool points (features + label column)")
		labPath   = flag.String("labeled", "", "CSV of initially labeled points")
		evalPath  = flag.String("eval", "", "optional CSV of evaluation points")
		labelCol  = flag.Int("labelcol", -1, "label column index (-1 = last; -2 = no label column, features only — use with -pack)")
		selName   = flag.String("select", "approx-firal", "strategy name from the selector registry; 'help' lists them")
		ranks     = flag.Int("ranks", 3, "ranks for dist-firal")
		rounds    = flag.Int("rounds", 3, "active-learning rounds (0 = until pool exhausted or a stop criterion fires)")
		budget    = flag.Int("budget", 10, "points labeled per round")
		seed      = flag.Int64("seed", 1, "seed for stochastic strategies")
		probes    = flag.Int("probes", 10, "Rademacher probes for FIRAL")
		cgtol     = flag.Float64("cgtol", 0.1, "CG tolerance for FIRAL")
		relaxIt   = flag.Int("relaxiters", 0, "mirror-descent cap (0 = default 100)")
		workers   = flag.Int("workers", 0, "data-parallel workers (0 = all cores)")
		targetAcc = flag.Float64("target-acc", 0, "stop once accuracy reaches this (0 = off)")
		maxTime   = flag.Duration("max-time", 0, "wall-clock budget, e.g. 30s (0 = off)")
		asCSV     = flag.Bool("csv", false, "emit per-round results as CSV")
		demo      = flag.Bool("demo", false, "ignore -pool/-labeled and run a built-in synthetic demo")
		shards    = flag.String("shards", "", "comma-separated float32 shard files: stream-select one batch from an out-of-core pool")
		rank      = flag.Int("rank", 0, "this process's rank with -peers (-ranks is the world size)")
		peers     = flag.String("peers", "", "dist-firal over TCP, one OS process per rank: rendezvous host:port (rank 0 listens there, everyone else dials); unset runs the ranks in this process")
		opTimeout = flag.Duration("op-timeout", 0, "per-operation timeout enabling rank-failure recovery with -peers (0 = wait forever)")
		killAfter = flag.Int("kill-after", 0, "test hook: crash this -peers rank after N collective steps (0 = off)")
		pack      = flag.String("pack", "", "write the -pool CSV (features only) to this shard file and exit")
	)
	flag.Parse()
	// The worker count is a process setting: it serves the resident
	// Learner path and the -shards path alike.
	if *workers > 0 {
		parallel.SetMaxWorkers(*workers)
	}

	if *pack != "" {
		if err := packShard(*pack, *poolPath, *labelCol); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *shards != "" {
		if err := streamSelect(streamConfig{
			shards: strings.Split(*shards, ","), labeled: *labPath, labelCol: *labelCol,
			selector: *selName, ranks: *ranks, budget: *budget,
			seed: *seed, probes: *probes, cgtol: *cgtol, relaxIters: *relaxIt,
			rank: *rank, peers: *peers,
			opTimeout: *opTimeout, killAfter: *killAfter,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	if strings.EqualFold(*selName, "help") || strings.EqualFold(*selName, "list") {
		fmt.Println("registered strategies:")
		for _, name := range pub.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	var cfg pub.Config
	if *demo {
		cfg = pub.CIFAR10Like().Scale(0.1).Generate(*seed)
	} else {
		if *poolPath == "" || *labPath == "" {
			log.Fatal("need -pool and -labeled CSV files (or -demo)")
		}
		poolX, poolY, err := loadCSV(*poolPath, *labelCol)
		if err != nil {
			log.Fatalf("pool: %v", err)
		}
		labX, labY, err := loadCSV(*labPath, *labelCol)
		if err != nil {
			log.Fatalf("labeled: %v", err)
		}
		cfg = pub.Config{
			PoolX: poolX, PoolY: poolY,
			LabeledX: labX, LabeledY: labY,
			Classes: max(slices.Max(poolY), slices.Max(labY)) + 1,
			Seed:    *seed,
		}
		if *evalPath != "" {
			evalX, evalY, err := loadCSV(*evalPath, *labelCol)
			if err != nil {
				log.Fatalf("eval: %v", err)
			}
			cfg.EvalX, cfg.EvalY = evalX, evalY
		}
	}
	hasEval := len(cfg.EvalX) > 0

	sel, err := pub.New(*selName, pub.SelectorOptions{
		FIRAL: pub.FIRALOptions{Probes: *probes, CGTol: *cgtol, MaxRelaxIterations: *relaxIt},
		Ranks: *ranks,
	})
	if err != nil {
		log.Fatal(err)
	}

	learner, err := pub.NewLearner(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the session mid-selection; completed rounds were
	// already streamed by the observer below.
	ctx, cancel := cli.InterruptContext()
	defer cancel()

	opts := []pub.RunOption{
		pub.WithRounds(*rounds),
		pub.WithBudget(*budget),
	}
	if *targetAcc > 0 {
		opts = append(opts, pub.WithStopCriterion(announcing(pub.TargetAccuracy(*targetAcc))))
	}
	if *maxTime > 0 {
		opts = append(opts, pub.WithStopCriterion(announcing(pub.MaxDuration(*maxTime))))
	}
	if *asCSV {
		fmt.Println("round,labels,pool_accuracy,eval_accuracy,balanced_eval_accuracy,select_seconds,train_seconds,selected")
		opts = append(opts, pub.WithObserver(func(r *pub.RoundReport) {
			fmt.Printf("%d,%d,%.4f,%.4f,%.4f,%.3f,%.3f,%s\n",
				r.Round, r.LabeledCount, r.PoolAccuracy, r.EvalAccuracy,
				r.BalancedEvalAccuracy, r.SelectSeconds, r.TrainSeconds,
				joinInts(r.Selected, ";"))
		}))
	} else {
		if *rounds > 0 {
			fmt.Printf("strategy: %s, %d rounds × %d points\n", sel.Name(), *rounds, *budget)
		} else {
			fmt.Printf("strategy: %s, unbounded rounds × %d points\n", sel.Name(), *budget)
		}
		opts = append(opts, pub.WithObserver(func(r *pub.RoundReport) {
			fmt.Printf("round %d: labels=%-4d pool acc=%.3f", r.Round, r.LabeledCount, r.PoolAccuracy)
			if hasEval {
				fmt.Printf(" eval acc=%.3f", r.EvalAccuracy)
			}
			fmt.Printf(" (select %.2fs, train %.2fs)\n", r.SelectSeconds, r.TrainSeconds)
			fmt.Printf("  selected: %s\n", joinInts(r.Selected, " "))
		}))
	}

	reports, err := learner.RunContext(ctx, sel, opts...)
	switch {
	case errors.Is(err, context.Canceled):
		log.Printf("interrupted after %d completed rounds", len(reports))
	case err != nil:
		log.Fatal(err)
	}
}

// loadCSV reads a labeled CSV into row slices and labels.
func loadCSV(path string, labelCol int) ([][]float64, []int, error) {
	if labelCol == dataset.NoLabelColumn {
		return nil, nil, fmt.Errorf("%s: -labelcol %d means no label column, but this mode needs labels", path, labelCol)
	}
	src, err := dataset.NewCSVSource(path, labelCol)
	if err != nil {
		return nil, nil, err
	}
	defer src.Close()
	x := mat.NewDense(src.NumRows(), src.Dim())
	if err := src.ReadRows(0, x.Rows, x); err != nil {
		return nil, nil, err
	}
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return rows, src.Labels(), nil
}

// announcing wraps a stop criterion so the reason is printed when it
// fires.
func announcing(c pub.StopCriterion) pub.StopCriterion {
	return func(r *pub.RoundReport) (bool, string) {
		stop, reason := c(r)
		if stop {
			log.Printf("stopping after round %d: %s", r.Round, reason)
		}
		return stop, reason
	}
}

func joinInts(xs []int, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, sep)
}
