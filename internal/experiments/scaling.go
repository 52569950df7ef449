package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/timing"
)

// ScalingPoint is one rank-count measurement of Fig. 6/7: per-phase
// wall-clock (critical path over ranks) and the corresponding theoretical
// estimates, plus the ideal-scaling reference.
type ScalingPoint struct {
	Ranks    int
	N        int // global pool size at this point
	Measured map[string]float64
	Theory   map[string]float64
	// Wall is the end-to-end time of the timed region.
	Wall float64
	// Ideal is the p=1 wall divided by p (strong) or the p=1 wall (weak):
	// the dashed line of Figs. 6–7.
	Ideal float64
}

// ScalingOptions configure the Fig. 6/7 experiments.
type ScalingOptions struct {
	// Ranks to sweep (paper: 1, 2, 3, 6, 12).
	Ranks []int
	// Strong: N is the fixed global pool size. Weak: NPerRank points per
	// rank.
	Strong   bool
	N        int
	NPerRank int
	D, C     int
	S, NCG   int // RELAX parameters (probes, fixed CG iterations)
	B        int // ROUND selections to time (time is reported per point)
	Seed     int64
	Machine  perfmodel.Machine
}

func (o *ScalingOptions) defaults() {
	if len(o.Ranks) == 0 {
		o.Ranks = []int{1, 2, 3, 6, 12}
	}
	if o.N <= 0 {
		o.N = 24000
	}
	if o.NPerRank <= 0 {
		o.NPerRank = 2000
	}
	if o.S <= 0 {
		o.S = 10
	}
	if o.NCG <= 0 {
		o.NCG = 20
	}
	if o.B <= 0 {
		o.B = 3
	}
	if o.Machine.Flops == 0 {
		o.Machine = perfmodel.CalibrateHost()
	}
}

// maxPhases reduces per-rank phase timings to the parallel critical path
// (max over ranks per phase).
func maxPhases(perRank []*timing.Phases) map[string]float64 {
	out := map[string]float64{}
	for _, ph := range perRank {
		if ph == nil {
			continue
		}
		for _, name := range ph.Names() {
			if s := ph.Seconds(name); s > out[name] {
				out[name] = s
			}
		}
	}
	return out
}

// RunRelaxScaling reproduces Fig. 6: time for one mirror-descent
// iteration of the distributed RELAX step at each rank count.
func RunRelaxScaling(ctx context.Context, o ScalingOptions) ([]*ScalingPoint, error) {
	o.defaults()
	return sweepRanks(ctx, o, func(c *mpi.Comm, sh *distfiral.Shard, _ int) (*timing.Phases, error) {
		res, err := distfiral.Relax(context.Background(), c, sh, 10, firal.RelaxOptions{
			FixedIterations: 1,
			Probes:          o.S,
			CGTol:           1e-30,
			CGMaxIter:       o.NCG,
			Seed:            o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return res.Timings, nil
	}, func(p, n int, meas map[string]float64, wall float64) *ScalingPoint {
		q := perfmodel.RelaxParams{N: n, D: o.D, C: o.C, S: o.S, NCG: 2 * o.NCG, P: p}
		pre, cg, grad, comm := o.Machine.RelaxIter(q)
		return &ScalingPoint{
			Ranks: p, N: n,
			Measured: meas,
			Theory: map[string]float64{
				"precond": pre, "cg": cg, "gradient": grad, "comm": comm,
			},
			Wall: wall,
		}
	})
}

// RunRoundScaling reproduces Fig. 7: time per selected point of the
// distributed ROUND step at each rank count.
func RunRoundScaling(ctx context.Context, o ScalingOptions) ([]*ScalingPoint, error) {
	o.defaults()
	return sweepRanks(ctx, o, func(c *mpi.Comm, sh *distfiral.Shard, n int) (*timing.Phases, error) {
		z := make([]float64, sh.PoolLocal.N())
		mat.Fill(z, float64(o.B)/float64(n))
		res, err := distfiral.Round(context.Background(), c, sh, z, o.B, 0)
		if err != nil {
			return nil, err
		}
		return res.Timings, nil
	}, func(p, n int, meas map[string]float64, wall float64) *ScalingPoint {
		// Per-point times, as in Fig. 7.
		for k := range meas {
			meas[k] /= float64(o.B)
		}
		q := perfmodel.RoundParams{N: n, D: o.D, C: o.C, P: p}
		return &ScalingPoint{
			Ranks: p, N: n,
			Measured: meas,
			Theory: map[string]float64{
				"eig":       o.Machine.EigComp(q),
				"objective": o.Machine.ObjectiveComp(q),
				"other":     o.Machine.RoundOtherComp(q),
				"comm":      o.Machine.RoundComm(q),
			},
			Wall: wall / float64(o.B),
		}
	})
}

// sweepRanks is the Fig. 6/7 measurement loop. At each rank count it
// builds the pool, times solve on every in-process rank's shard (n is
// the global pool size) and turns the critical-path phases and the wall
// time into a point. Cancellation is honored between measurements; the
// timed solve runs under a background context, and its comm phase
// includes the solver's per-iteration agreed poll, one one-float
// allreduce on top of the paper's communication schedule.
func sweepRanks(ctx context.Context, o ScalingOptions,
	solve func(c *mpi.Comm, sh *distfiral.Shard, n int) (*timing.Phases, error),
	point func(p, n int, meas map[string]float64, wall float64) *ScalingPoint) ([]*ScalingPoint, error) {
	var points []*ScalingPoint
	for _, p := range o.Ranks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := o.N
		if !o.Strong {
			n = o.NPerRank * p
		}
		labeled, pool := SynthSets(2*o.C, n, o.D, o.C, o.Seed)
		src := dataset.NewMatrixSource(pool.X)
		phases := make([]*timing.Phases, p)
		errs := make([]error, p)
		var runErr error
		wall := Timed(func() {
			_, runErr = mpi.Run(p, func(c *mpi.Comm) {
				sh := distfiral.MakeStreamShard(labeled, src, pool.H, 0, p, c.Rank())
				phases[c.Rank()], errs[c.Rank()] = solve(c, sh, n)
			})
		})
		if err := cmp.Or(runErr, errs[0]); err != nil {
			return nil, err
		}
		points = append(points, point(p, n, maxPhases(phases), wall))
	}
	fillIdeal(points, o.Strong)
	return points, nil
}

// fillIdeal computes the dashed ideal-scaling line from the p = 1 point.
func fillIdeal(points []*ScalingPoint, strong bool) {
	if len(points) == 0 {
		return
	}
	base := points[0].Wall * float64(points[0].Ranks)
	for _, pt := range points {
		if strong {
			pt.Ideal = base / float64(pt.Ranks)
		} else {
			pt.Ideal = points[0].Wall
		}
	}
}

// PrintScaling renders a Fig. 6/7 sweep.
func PrintScaling(w io.Writer, title string, phases []string, points []*ScalingPoint) {
	fmt.Fprintf(w, "# %s\n", title)
	headers := []string{"ranks", "n", "wall", "ideal"}
	for _, ph := range phases {
		headers = append(headers, ph+" (exp)", ph+" (theory)")
	}
	var rows [][]string
	for _, pt := range points {
		row := []string{
			fmt.Sprintf("%d", pt.Ranks),
			fmt.Sprintf("%d", pt.N),
			Secs(pt.Wall),
			Secs(pt.Ideal),
		}
		for _, ph := range phases {
			row = append(row, Secs(pt.Measured[ph]), Secs(pt.Theory[ph]))
		}
		rows = append(rows, row)
	}
	PrintTable(w, headers, rows)
}
