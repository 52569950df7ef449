// Streaming: select a batch from a pool that never materializes as one
// in-memory matrix. The walkthrough packs a synthetic pool into the
// float32 shard format block by block, memory-maps it back through
// dataset.OpenShards, attaches classifier probabilities in one streamed
// pass, and runs Approx-FIRAL over a hessian.Stream through
// distfiral.SelectInProcess — the same call `firal -shards` makes, and
// the path that scales selection past resident RAM (the
// BENCH_round.json pool_stream_n1e6_d64 entry scores a 1,000,000×64
// pool this way at 0 allocs/op steady state).
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

func main() {
	const (
		n, d, classes = 20_000, 32, 4
		budget        = 10
	)
	dir, err := os.MkdirTemp("", "firal-streaming")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ❶ Pack the pool into two shard files, block by block: a producer
	// (feature-extraction job, DINOv2 embedding pass, …) would do this
	// once; selection then re-reads the shards for every query. Only one
	// block is ever in memory here.
	rng := rnd.New(7)
	paths := []string{filepath.Join(dir, "pool-0.shard"), filepath.Join(dir, "pool-1.shard")}
	block := mat.NewDense(dataset.DefaultBlockRows, d)
	row := 0
	for s, span := range [][2]int{{0, n / 3}, {n / 3, n}} {
		w, err := dataset.CreateShard(paths[s], d)
		if err != nil {
			log.Fatal(err)
		}
		for lo := span[0]; lo < span[1]; lo += block.Rows {
			hi := min(lo+block.Rows, span[1])
			b := block.RowSlice(0, hi-lo)
			for i := 0; i < b.Rows; i++ {
				rng.Normal(b.Row(i), float64((row+i)%classes), 1) // crude class structure
			}
			row += b.Rows
			if err := w.AppendBlock(b); err != nil {
				log.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}

	// ❷ Memory-map the shards back. ReadRows decodes float32 → float64 on
	// demand; the kernel pages the file lazily, so the pool may exceed RAM.
	src, err := dataset.OpenShards(paths...)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	fmt.Printf("pool: %d × %d across %d shards\n", src.NumRows(), src.Dim(), len(paths))

	// ❸ Train a small classifier on a labeled seed set, then attach
	// reduced probabilities to the pool in one streamed pass. The n×(c−1)
	// probability matrix is the only resident per-point state.
	labX := mat.NewDense(4*classes, d)
	labY := make([]int, labX.Rows)
	for i := range labY {
		labY[i] = i % classes
		rng.Normal(labX.Row(i), float64(labY[i]), 1)
	}
	model, err := logreg.Train(labX, labY, classes, nil, logreg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	reduced := mat.NewDense(n, classes-1)
	if err := hessian.PoolProbs(reduced, src, model.Theta); err != nil {
		log.Fatal(err)
	}

	// ❹ Select through the block-streaming solver path.
	// distfiral.SelectInProcess cuts the pool into hessian.Stream shards,
	// which implement the same Pool contract as a resident set, so RELAX
	// and ROUND run unchanged — their kernels just iterate shard blocks.
	// At one rank it is the serial firal.SelectApprox over the whole
	// pool; more ranks give the § III-C distributed solve. The stream's
	// read-ahead (dataset.WithPrefetch) decodes block k+1 while the
	// kernels chew block k; selections are bit-identical with or without
	// it. src stays ours to close.
	labeled := hessian.NewSet(labX, hessian.ReduceProbs(softmax.Probabilities(nil, labX, model.Theta)))
	res, err := distfiral.SelectInProcess(context.Background(), 1, labeled, src, reduced, budget, firal.Options{
		Relax: firal.RelaxOptions{Seed: 1, MaxIter: 20}, // capped so the demo stays snappy
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d pool rows for labeling: %v\n", len(res.Selected), res.Selected)
	fmt.Printf("RELAX: %d mirror-descent iterations, %d CG iterations total\n",
		res.Relax.Iterations, res.Relax.CGIterations)
}
