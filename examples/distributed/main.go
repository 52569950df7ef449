// Distributed: run Approx-FIRAL sharded over distributed-memory ranks
// (§ III-C) three ways — simulated in-process ranks through the
// high-level learner, then the same solver over real TCP sockets on
// localhost (the transport cmd/firal uses between machines), verifying
// the socket run selects bit-for-bit what the in-process run selects —
// and finally the multi-process walkthrough: three firal processes, one
// killed mid-run, survivors recovering.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	firal "repro"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	ifiral "repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

func main() {
	learnerComparison()
	tcpBitIdentity()
	walkthrough()
}

// learnerComparison drives the registry-level Dist-FIRAL selector over
// simulated ranks and compares its selection with the serial solver.
func learnerComparison() {
	bench := firal.ImageNet50Like().Scale(0.05)
	opts := firal.FIRALOptions{Probes: 10, CGTol: 0.1, Seed: 3}

	serialCfg := bench.Generate(9)
	serial, err := firal.NewLearner(serialCfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	repS, err := serial.StepContext(ctx, firal.ApproxFIRAL(opts), bench.Budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial Approx-FIRAL selected %d points, eval acc %.3f\n",
		len(repS.Selected), repS.EvalAccuracy)

	for _, ranks := range []int{2, 3, 6} {
		cfg := bench.Generate(9) // identical dataset realization
		learner, err := firal.NewLearner(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := learner.StepContext(ctx, firal.DistributedFIRAL(ranks, opts), bench.Budget)
		if err != nil {
			log.Fatal(err)
		}
		match := 0
		inSerial := map[int]bool{}
		for _, i := range repS.Selected {
			inSerial[i] = true
		}
		for _, i := range rep.Selected {
			if inSerial[i] {
				match++
			}
		}
		fmt.Printf("ranks=%d: eval acc %.3f, selection overlap with serial %d/%d\n",
			ranks, rep.EvalAccuracy, match, len(rep.Selected))
	}
}

// exampleSets builds a small labeled set and pool with class structure
// (reduced probabilities, as the FIRAL solvers require).
func exampleSets(seed int64, nLabeled, nPool, d, c int) (*hessian.Set, *hessian.Set) {
	rng := rnd.New(seed)
	means := mat.NewDense(c, d)
	for k := 0; k < c; k++ {
		rng.UnitVector(means.Row(k))
		mat.Scal(2, means.Row(k))
	}
	sample := func(n int) *mat.Dense {
		x := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			rng.Normal(x.Row(i), 0, 0.4)
			mat.Axpy(1, means.Row(i%c), x.Row(i))
		}
		return x
	}
	theta := means.T()
	xo, xu := sample(nLabeled), sample(nPool)
	ho := hessian.ReduceProbs(softmax.Probabilities(nil, xo, theta))
	hu := hessian.ReduceProbs(softmax.Probabilities(nil, xu, theta))
	return hessian.NewSet(xo, ho), hessian.NewSet(xu, hu)
}

// tcpBitIdentity runs the same distributed Select over the in-process
// mailbox transport and over real length-prefixed TCP on localhost —
// rank 0 listens, ranks 1 and 2 dial — and checks the selections match
// bit for bit. Between machines the only change is the address.
func tcpBitIdentity() {
	const p, b = 3, 5
	labeled, pool := exampleSets(21, 12, 90, 6, 3)
	opts := ifiral.RelaxOptions{FixedIterations: 12, Probes: 6, CGTol: 0.05, Seed: 4}
	ctx := context.Background()

	src := dataset.NewMatrixSource(pool.X)
	run := func(ts []mpi.Transport) []int {
		var sel []int
		_, err := mpi.RunTransports(ts, func(c *mpi.Comm) {
			sh := distfiral.MakeStreamShard(labeled, src, pool.H, 0, c.Size(), c.Rank())
			s, _, _, err := distfiral.Select(ctx, c, sh, b, 0, opts)
			if err != nil {
				log.Fatalf("rank %d: %v", c.Rank(), err)
			}
			if c.Rank() == 0 {
				sel = s
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		return sel
	}

	inproc := run(mpi.NewLocalWorld(p))

	rz, err := mpi.ListenTCP("127.0.0.1:0", p)
	if err != nil {
		log.Fatal(err)
	}
	addr := rz.Addr()
	bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	ts := make([]mpi.Transport, p)
	errc := make(chan error, p-1)
	for r := 1; r < p; r++ {
		go func(r int) {
			t, err := mpi.DialTCP(bctx, addr, r, p)
			ts[r] = t
			errc <- err
		}(r)
	}
	if ts[0], err = rz.Accept(bctx); err != nil {
		log.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}
	overTCP := run(ts)
	for _, t := range ts {
		t.Close()
	}

	fmt.Printf("\nTCP rendezvous at %s:\n  in-process selection %v\n  socket     selection %v\n",
		addr, inproc, overTCP)
	if len(inproc) != len(overTCP) {
		log.Fatal("transport changed the selection size")
	}
	for i := range inproc {
		if inproc[i] != overTCP[i] {
			log.Fatal("transport changed the selection — contract violated")
		}
	}
	fmt.Println("bit-identical selection over mailbox and TCP transports ✓")
}

// walkthrough prints the real multi-process recipe: the same binary on
// three machines (or shells), and what happens when one dies.
func walkthrough() {
	fmt.Println(`
multi-process walkthrough (three shells; between machines replace
127.0.0.1 with rank 0's hostname):

  # rank 0 listens on the rendezvous port; ranks 1 and 2 dial it
  firal -shards pool.shard -labeled seed.csv -select dist-firal \
        -peers 127.0.0.1:9907 -ranks 3 -rank 0 -budget 10 -op-timeout 5s
  firal ... -rank 1 ...   # identical flags except -rank
  firal ... -rank 2 ...

All three print the same selection — bit-identical to a single-process
run over the same shards (-select dist-firal without -peers).

Fault recovery: give one rank -kill-after N (it exits mid-RELAX after N
collectives; a stand-in for a real crash). With -op-timeout set, the
survivors time out on the dead rank, agree on who is gone, re-shard the
pool across the remaining ranks, and resume the interrupted iteration
from the last checkpoint:

  firal ... -rank 2 -kill-after 40 ...

The two survivors log the lost rank and finish with the full budget —
selecting exactly what a fresh 2-rank run resumed from that checkpoint
would. scripts/dist_smoke.sh automates this end to end in CI.`)
}
