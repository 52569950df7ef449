// Command firal-paper regenerates the experiments of the paper, one
// experiment per invocation:
//
//	accuracy     Fig. 2 and Fig. 3 accuracy curves, and the Table V summary
//	cg           Fig. 1: CG convergence with and without the block-diagonal
//	             preconditioner, with the condition numbers of § III-A
//	scaling      Figs. 6 and 7: strong and weak scaling of distributed
//	             RELAX and ROUND over the in-process MPI runtime
//	sensitivity  Fig. 4: RELAX objective under different probe counts and
//	             CG tolerances, against the exact solver
//	single       Fig. 5: single-device RELAX/ROUND breakdown over d or c
//	time         Table VI: Exact- vs Approx-FIRAL wall clock, and the
//	             analytic Tables II and III
//
// Each experiment takes its own flags; -scale shrinks paper-sized runs.
// Scaling ranks are goroutines, so measured speedup saturates at the
// host's core count; the theoretical series shows the ideal multi-device
// behaviour.
//
// Usage:
//
//	firal-paper accuracy -set small -scale 0.1 -trials 3
//	firal-paper accuracy -table5
//	firal-paper cg -dataset ImageNet-1k -scale 0.01 -tol 1e-3
//	firal-paper scaling -step round -mode weak -nperrank 4000 -d 48 -c 32
//	firal-paper sensitivity -scale 0.1 -iters 40
//	firal-paper single -step round -sweep c -values 8,16,32,64 -d 24 -n 50000
//	firal-paper time -tables
//
// A bad experiment name or flag value exits with status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/dataset"
)

// experiment runs one paper experiment from its command-line flags,
// writing the report to w.
type experiment func(ctx context.Context, args []string, w io.Writer) error

var experimentsByName = map[string]experiment{
	"accuracy":    runAccuracy,
	"cg":          runCG,
	"scaling":     runScaling,
	"sensitivity": runSensitivity,
	"single":      runSingle,
	"time":        runTime,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("firal-paper: ")
	ctx, cancel := cli.InterruptContext()
	defer cancel()
	err := run(ctx, os.Args[1:], os.Stdout)
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &ue):
		log.Print(err)
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run dispatches args[0] to its experiment.
func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) == 0 {
		return usagef("missing experiment (valid: %s)", experimentNames())
	}
	exp, ok := experimentsByName[args[0]]
	if !ok {
		return usagef("unknown experiment %q (valid: %s)", args[0], experimentNames())
	}
	return exp(ctx, args[1:], w)
}

func experimentNames() string {
	names := make([]string, 0, len(experimentsByName))
	for name := range experimentsByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// usageError marks a bad experiment name or flag value (exit status 2).
type usageError struct{ error }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// parseFlags parses an experiment's flags; a parse error is a usage
// error, and -h returns flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

// oneOf checks a flag value against its valid set.
func oneOf(flagName, v string, valid ...string) error {
	for _, ok := range valid {
		if v == ok {
			return nil
		}
	}
	return usagef("unknown -%s %q (valid: %s)", flagName, v, strings.Join(valid, ", "))
}

// datasets resolves a -dataset flag: the Table V entry of that name
// (case-insensitive), or defaults when name is empty.
func datasets(name string, defaults ...dataset.Config) ([]dataset.Config, error) {
	if name == "" {
		return defaults, nil
	}
	var names []string
	for _, c := range dataset.TableV() {
		if strings.EqualFold(c.Name, name) {
			return []dataset.Config{c}, nil
		}
		names = append(names, c.Name)
	}
	return nil, usagef("unknown dataset %q (valid: %s)", name, strings.Join(names, ", "))
}

// parseInts parses a comma-separated int list flag.
func parseInts(flagName, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, usagef("bad -%s: %v", flagName, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// overrides are the dimension flags for host-sized reductions of
// paper-scale configs (0 keeps the Table V value).
type overrides struct {
	d, c, budget, rounds int
}

// register adds -d, -c, -budget and, when withRounds, -rounds to fs.
func (o *overrides) register(fs *flag.FlagSet, withRounds bool) {
	fs.IntVar(&o.d, "d", 0, "override feature dimension")
	fs.IntVar(&o.c, "c", 0, "override class count")
	fs.IntVar(&o.budget, "budget", 0, "override per-round budget")
	if withRounds {
		fs.IntVar(&o.rounds, "rounds", 0, "override round count")
	}
}

func (o *overrides) apply(cfgs []dataset.Config) {
	for i := range cfgs {
		if o.d > 0 {
			cfgs[i].Dim = o.d
			cfgs[i].Name += " (reduced)"
		}
		if o.c > 0 {
			cfgs[i].Classes = o.c
		}
		if o.budget > 0 {
			cfgs[i].Budget = o.budget
		}
		if o.rounds > 0 {
			cfgs[i].Rounds = o.rounds
		}
	}
}
