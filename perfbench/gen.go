package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// Inputs are generated from the seed before any clock starts. Shard
// files are fsynced and then read once, so no writeback of a fresh file
// overlaps timed work and every timed read hits a warm page cache: the
// set-up time then measures what the program pays on each run, not what
// the generator left behind.

// writeShard packs n rows of dimension d into a shard file, fill
// producing them block by block, then syncs and reads the file back once.
func writeShard(path string, n, d int, fill func(lo int, block *mat.Dense)) error {
	w, err := dataset.CreateShard(path, d)
	if err != nil {
		return err
	}
	block := mat.NewDense(dataset.DefaultBlockRows, d)
	for lo := 0; lo < n; lo += block.Rows {
		b := block.RowSlice(0, min(block.Rows, n-lo))
		fill(lo, b)
		if err := w.AppendBlock(b); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return syncAndWarm(path)
}

// syncAndWarm flushes path to disk and reads it once into the page cache.
func syncAndWarm(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.CopyBuffer(io.Discard, f, make([]byte, 1<<20)); err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	return nil
}

// float32Normal fills dst with N(0, 1) draws rounded to float32, so a
// resident copy and a float32 shard of the same rows hold equal values.
func float32Normal(rng *rnd.Source, dst []float64) {
	rng.Normal(dst, 0, 1)
	for i, v := range dst {
		dst[i] = float64(float32(v))
	}
}

// classProblem is a synthetic selection problem: n unit-norm pool rows,
// a labeled seed set, and the reduced class probabilities (c Fisher
// blocks) of a random softmax model over c+1 classes.
type classProblem struct {
	x, h    *mat.Dense // pool features (float32-representable), probabilities
	labeled *hessian.Set
}

func genClassProblem(seed int64, n, nLabeled, d, c int) *classProblem {
	rng := rnd.New(seed)
	theta := mat.NewDense(d, c+1)
	rng.Normal(theta.Data, 0, 1)
	gen := func(rows int) (*mat.Dense, *mat.Dense) {
		x := mat.NewDense(rows, d)
		rng.Normal(x.Data, 0, 1)
		for i := 0; i < rows; i++ {
			row := x.Row(i)
			mat.Scal(1/mat.Nrm2(row), row)
			for j, v := range row {
				row[j] = float64(float32(v))
			}
		}
		return x, hessian.ReduceProbs(softmax.Probabilities(nil, x, theta))
	}
	lx, lh := gen(nLabeled)
	x, h := gen(n)
	return &classProblem{x: x, h: h, labeled: hessian.NewSet(lx, lh)}
}

// labeledPool is a pool with oracle labels drawn from c Gaussian
// classes: row i is mean[y_i] + N(0, I). It backs the service workload,
// whose client labels each round's picks from the oracle. The class
// means are the same for every seed (the seed draws the rows): how far
// apart the classes lie sets how many CG iterations a round needs, and
// that should not change from one seed to the next.
type labeledPool struct {
	d, c  int
	means *mat.Dense
	rng   *rnd.Source
}

func newLabeledPool(seed int64, d, c int) *labeledPool {
	means := mat.NewDense(c, d)
	rnd.New(1).Normal(means.Data, 0, 0.5)
	return &labeledPool{d: d, c: c, means: means, rng: rnd.New(seed)}
}

// draw fills x with rows of uniformly drawn classes and returns their
// labels.
func (p *labeledPool) draw(x *mat.Dense) []int {
	y := make([]int, x.Rows)
	float32Normal(p.rng, x.Data[:x.Rows*x.Cols])
	for i := range y {
		y[i] = p.rng.Intn(p.c)
		mat.Axpy(1, p.means.Row(y[i]), x.Row(i))
		for j, v := range x.Row(i) {
			x.Row(i)[j] = float64(float32(v))
		}
	}
	return y
}
