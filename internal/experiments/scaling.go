package experiments

import (
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
	var points []*ScalingPoint
	var firstErr error
	for _, p := range o.Ranks {
		// Cancellation is honored between measurements; the timed solve
		// itself runs under a background context so the per-iteration
		// cancellation-flag broadcast is skipped and the measured comm
		// phase is exactly the paper's communication schedule.
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
		wall := Timed(func() {
			mpi.Run(p, func(c *mpi.Comm) {
				sh := distfiral.MakeStreamShard(labeled, src, pool.H, 0, p, c.Rank())
				res, err := distfiral.Relax(context.Background(), c, sh, 10, firal.RelaxOptions{
					FixedIterations: 1,
					Probes:          o.S,
					CGTol:           1e-30,
					CGMaxIter:       o.NCG,
					Seed:            o.Seed,
				})
				if err != nil {
					if c.Rank() == 0 {
						firstErr = err
					}
					return
				}
				phases[c.Rank()] = res.Timings
			})
		})
		if firstErr != nil {
			return nil, firstErr
		}
		q := perfmodel.RelaxParams{N: n, D: o.D, C: o.C, S: o.S, NCG: 2 * o.NCG, P: p}
		pre, cg, grad, comm := o.Machine.RelaxIter(q)
		points = append(points, &ScalingPoint{
			Ranks: p, N: n,
			Measured: maxPhases(phases),
			Theory: map[string]float64{
				"precond": pre, "cg": cg, "gradient": grad, "comm": comm,
			},
			Wall: wall,
		})
	}
	fillIdeal(points, o.Strong)
	return points, nil
}

// RunRoundScaling reproduces Fig. 7: time per selected point of the
// distributed ROUND step at each rank count.
func RunRoundScaling(ctx context.Context, o ScalingOptions) ([]*ScalingPoint, error) {
	o.defaults()
	var points []*ScalingPoint
	var firstErr error
	for _, p := range o.Ranks {
		// As in RunRelaxScaling: poll between measurements, time the
		// solve itself without the cancellation broadcast.
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
		wall := Timed(func() {
			mpi.Run(p, func(c *mpi.Comm) {
				sh := distfiral.MakeStreamShard(labeled, src, pool.H, 0, p, c.Rank())
				z := make([]float64, sh.PoolLocal.N())
				mat.Fill(z, float64(o.B)/float64(n))
				res, err := distfiral.Round(context.Background(), c, sh, z, o.B, 0)
				if err != nil {
					if c.Rank() == 0 {
						firstErr = err
					}
					return
				}
				phases[c.Rank()] = res.Timings
			})
		})
		if firstErr != nil {
			return nil, firstErr
		}
		// Per-point times, as in Fig. 7.
		meas := maxPhases(phases)
		for k := range meas {
			meas[k] /= float64(o.B)
		}
		q := perfmodel.RoundParams{N: n, D: o.D, C: o.C, P: p}
		points = append(points, &ScalingPoint{
			Ranks: p, N: n,
			Measured: meas,
			Theory: map[string]float64{
				"eig":       o.Machine.EigComp(q),
				"objective": o.Machine.ObjectiveComp(q),
				"other":     o.Machine.RoundOtherComp(q),
				"comm":      o.Machine.RoundComm(q),
			},
			Wall: wall / float64(o.B),
		})
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
