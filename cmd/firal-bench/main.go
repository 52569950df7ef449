// Command firal-bench measures the hot kernels behind the Approx-FIRAL
// per-round cost model (Tables II–III) — blocked vs reference GEMM, the
// Lemma-2 Hessian matvec, the ROUND scoring pass, a preconditioned CG
// solve, and one full Approx-FIRAL round — and writes the results as JSON
// so successive PRs can track the performance trajectory.
//
// Usage:
//
//	firal-bench -out BENCH_round.json   # full run, records the baseline
//	firal-bench -quick                  # CI smoke: one short pass per benchmark
//	firal-bench -against BENCH_round.json -tol 10   # diff vs a baseline
//
// Without -out the results are only printed, so a quick or diff run never
// overwrites the recorded baseline.
//
// With -against, results are compared to the baseline file after the
// run: a baseline row with no fresh result fails the diff, and a
// benchmark fails it when its ns/op, or its one-worker time
// (extra.workers1_ns), exceeds baseline×tol (machines differ; keep tol
// generous), when the baseline has a one-worker time the fresh row
// lacks, or when its allocs/op regresses beyond
// baseline + max(8, baseline/4) — a gross-regression tripwire; the exact
// zero-alloc pins live in the AllocsPerRun tests. Any failure exits
// nonzero, which is how CI keeps the recorded trajectory from rotting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
	"repro/internal/timing"
)

// entry is one benchmark result. Extra carries derived metrics such as
// speedup ratios.
type entry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	GoVersion string    `json:"go_version"`
	GoArch    string    `json:"go_arch"`
	NumCPU    int       `json:"num_cpu"`
	Kernel    string    `json:"kernel"` // mat kernel level: avx512, avx or portable
	Date      time.Time `json:"date"`
	Results   []entry   `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("firal-bench: ")
	testing.Init() // registers -test.benchtime, which testing.Benchmark reads
	var (
		out     = flag.String("out", "", "output JSON path (empty = print only)")
		quick   = flag.Bool("quick", false, "single short pass per benchmark (CI smoke)")
		against = flag.String("against", "", "baseline JSON to diff results against")
		tol     = flag.Float64("tol", 6, "allowed ns/op factor over the baseline")
	)
	flag.Parse()

	benchTime := time.Second
	if *quick {
		benchTime = 10 * time.Millisecond
	}
	if err := flag.Set("test.benchtime", benchTime.String()); err != nil {
		log.Fatal(err)
	}
	run := func(name string, f func(b *testing.B)) entry {
		r := testing.Benchmark(f)
		e := entry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Printf("%-28s %14.0f ns/op %8d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
		return e
	}

	rep := report{
		GoVersion: runtime.Version(),
		GoArch:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Kernel:    mat.KernelLevel(),
		Date:      time.Now().UTC(),
		Results:   []entry{},
	}

	// --- GEMM: blocked vs reference at d=256 (the ≥2× gate). ---
	const gd = 256
	rng := rnd.New(1)
	ga := mat.NewDense(gd, gd)
	gb := mat.NewDense(gd, gd)
	rng.Normal(ga.Data, 0, 1)
	rng.Normal(gb.Data, 0, 1)
	gdst := mat.NewDense(gd, gd)
	// Benchmarks measure the steady state: warm each op before the timed
	// loop so quick mode (b.N may be 1) doesn't charge cold-start pool,
	// packing-scratch, and worker-spawn allocations to the measurement.
	blocked := run("gemm_blocked_d256", func(b *testing.B) {
		mat.Mul(gdst, ga, gb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mat.Mul(gdst, ga, gb)
		}
	})
	naive := run("gemm_naive_d256", func(b *testing.B) {
		mat.RefMul(gdst, ga, gb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mat.RefMul(gdst, ga, gb)
		}
	})
	blocked.Extra = map[string]float64{"speedup_vs_naive": naive.NsPerOp / blocked.NsPerOp}
	rep.Results = append(rep.Results, blocked, naive)

	// --- The symmetric eigensolver at ROUND's per-class shape: the full
	// eigendecomposition of M_k and the values-only solve of (H̃)_k, both
	// d=64 with a warm workspace and caller-owned outputs. ---
	const ed = 64
	ea := mat.NewDense(ed, ed)
	rng.Normal(ea.Data, 0, 1)
	ea.Symmetrize()
	ews := mat.NewWorkspace()
	evals, evecs := make([]float64, ed), mat.NewDense(ed, ed)
	rep.Results = append(rep.Results, run("symeig_d64", func(b *testing.B) {
		mat.SymEigInto(ews, evals, evecs, ea) // warm the workspace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mat.SymEigInto(ews, evals, evecs, ea); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Results = append(rep.Results, run("symeigvals_d64", func(b *testing.B) {
		mat.SymEigvalsInto(ews, evals, ea) // warm the workspace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mat.SymEigvalsInto(ews, evals, ea); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- Lemma-2 Hessian matvec on one vector (s=1) with a warm
	// workspace. ---
	labeled, pool := experiments.SynthSets(20, 2000, 64, 10, 2)
	ws := mat.NewWorkspace()
	v := mat.NewDense(1, pool.Ed())
	dst := mat.NewDense(1, pool.Ed())
	w := make([]float64, pool.N())
	rnd.New(3).Normal(v.Data, 0, 1)
	mat.Fill(w, 0.5)
	rep.Results = append(rep.Results, run("hessian_matvec_n2000_d64_c9", func(b *testing.B) {
		hessian.MatVecBlockWS(ws, pool, dst, v, w) // warm the workspace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hessian.MatVecBlockWS(ws, pool, dst, v, w)
		}
	}))

	// scaling times f at the process's worker count and at one worker,
	// alternating the two three times and keeping the best of each, so a
	// load swing on the host hits both figures instead of whichever ran
	// second. The one-worker time goes to extra.workers1_ns.
	scaling := func(name string, f func(b *testing.B)) entry {
		var e entry
		one := math.Inf(1)
		for round := 0; round < 3; round++ {
			if r := run(name, f); round == 0 || r.NsPerOp < e.NsPerOp {
				e = r
			}
			prevW := parallel.SetMaxWorkers(1)
			one = math.Min(one, run(name+"@1w", f).NsPerOp)
			parallel.SetMaxWorkers(prevW)
		}
		e.Extra = map[string]float64{"workers1_ns": one}
		return e
	}

	// --- The weighted Gram of one DefaultBlockRows × 64 block through
	// mat.WeightedGram, whose workers split the triangle (Set.DenseSum's
	// kernel). The pool sweeps behind every Σz block, the RELAX
	// preconditioner and ROUND's Σ⋄ run it once per class per block on one
	// lane (mat.WeightedGramAddLower and MirrorLower, WeightedGram's
	// one-worker form), which the row's workers1_ns measures. ---
	gx := mat.NewDense(dataset.DefaultBlockRows, 64)
	gw := make([]float64, gx.Rows)
	grng := rnd.New(9)
	grng.Normal(gx.Data, 0, 1)
	for i := range gw {
		gw[i] = 0.1 + 0.8*grng.Float64()
	}
	gram := mat.NewDense(64, 64)
	rep.Results = append(rep.Results, scaling("gram_block_n4096_d64", func(b *testing.B) {
		mat.WeightedGram(gram, gx, gw)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mat.WeightedGram(gram, gx, gw)
		}
	}))

	// --- Fused multi-probe Lemma-2 sweeps, s = 10 probes per sweep: the
	// block-CG operator at the stream (c=1), service (c=2) and resident
	// (c=10) shapes, and the Eq. 12 gradient accumulation, each with its
	// one-worker time. ---
	for _, bc := range []struct {
		name string
		n, c int
		quad bool
	}{
		{"matvec_block_n1e5_d64_c1_s10", 100_000, 1, false},
		{"matvec_block_n2e4_d64_c2_s10", 20_000, 2, false},
		{"matvec_block_n1e4_d64_c10_s10", 10_000, 10, false},
		{"quad_block_n1e5_d64_c1_s10", 100_000, 1, true},
	} {
		rep.Results = append(rep.Results, scaling(bc.name, blockSweepBench(bc.n, bc.c, bc.quad)))
	}

	// --- Preconditioned CG solve (Σz x = b) of one right-hand side (s=1)
	// with workspace. ---
	p := firal.NewProblem(labeled, pool)
	z := make([]float64, p.N())
	mat.Fill(z, 1/float64(p.N()))
	sigMV := krylov.BlockOp(p.SigmaMatVec(ws, z))
	sig, err := p.SigmaBlocks(z)
	if err != nil {
		log.Fatal(err)
	}
	bp := firal.NewBlockPreconditionerWS()
	if err := bp.Update(sig); err != nil {
		log.Fatal(err)
	}
	precond := krylov.BlockOp(bp.ApplyBlock)
	rhs := mat.NewDense(1, p.Ed())
	sol := mat.NewDense(1, p.Ed())
	rnd.New(4).Rademacher(rhs.Data)
	cgOpt := krylov.Options{Tol: 1e-6, MaxIter: 400, Workspace: ws}
	var cgRes []krylov.Result
	rep.Results = append(rep.Results, run("pcg_solve_ed576", func(b *testing.B) {
		cgRes = krylov.SolveBlockInto(context.Background(), sigMV, precond, rhs, sol, cgRes, cgOpt) // warm the workspace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cgRes = krylov.SolveBlockInto(context.Background(), sigMV, precond, rhs, sol, cgRes, cgOpt)
		}
	}))

	// --- ROUND scoring pass (the per-candidate pool rescore). ---
	scores := make([]float64, p.N())
	rep.Results = append(rep.Results, run("round_scores_n2000_d64_c9", func(b *testing.B) {
		rsig, serr := p.SigmaBlocks(z)
		if serr != nil {
			b.Fatal(serr)
		}
		st, serr := firal.NewRoundState(rsig, hessian.BlockDiagSumInto(nil, p.Labeled, nil, nil),
			10, p.DefaultEta(), timing.New())
		if serr != nil {
			b.Fatal(serr)
		}
		st.Scores(p.Pool, scores) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Scores(p.Pool, scores)
		}
	}))

	// --- One full Approx-FIRAL round (RELAX + ROUND). ---
	// Warmed like the kernel benches: the per-call setup is recycled
	// through free lists, so the steady state (what a session of repeated rounds
	// pays) is the round after the scratch pools are populated.
	sp, spool := experiments.SynthSets(20, 600, 32, 8, 5)
	sprob := firal.NewProblem(sp, spool)
	selectRound := func() error {
		_, err := firal.SelectApprox(context.Background(), sprob, 5, firal.Options{
			Relax: firal.RelaxOptions{FixedIterations: 3, Seed: 1},
		})
		return err
	}
	rep.Results = append(rep.Results, run("approx_firal_round_n600_d32", func(b *testing.B) {
		if err := selectRound(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := selectRound(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// --- Steady-state ROUND candidate step at 4 workers. ---
	// One rescore-and-update of the n=600 round config with warm state and
	// the persistent worker pool engaged: the zero-alloc multicore
	// guarantee of the pool + the Workspace eigenbasis rebuild, pinned
	// here as allocs_per_op = 0 in the recorded trajectory.
	rep.Results = append(rep.Results, run("round_steady_n600_d32_w4", func(b *testing.B) {
		prevW := parallel.SetMaxWorkers(4)
		defer parallel.SetMaxWorkers(prevW)
		z := make([]float64, sprob.N())
		mat.Fill(z, 5/float64(sprob.N()))
		ph := timing.New()
		ssig, serr := sprob.SigmaBlocks(z)
		if serr != nil {
			b.Fatal(serr)
		}
		st, serr := firal.NewRoundState(ssig, hessian.BlockDiagSumInto(nil, sprob.Labeled, nil, nil),
			5, sprob.DefaultEta(), ph)
		if serr != nil {
			b.Fatal(serr)
		}
		sscores := make([]float64, sprob.N())
		step := func() {
			st.Scores(sprob.Pool, sscores)
			best, bestV := 0, sscores[0]
			for i, s := range sscores {
				if s > bestV {
					best, bestV = i, s
				}
			}
			if _, err := st.Update(sprob.Pool.Row(best, nil), sprob.Pool.Probs().Row(best), ph); err != nil {
				b.Fatal(err)
			}
		}
		step() // warm scratch, eigen storage, task pools
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	}))

	// --- Million-point streaming benches over mmap'd shards. ---
	// The pool (1e6 × 64 float32 ≈ 244 MiB) lives in two shard files and
	// is consumed through the block-streaming PoolSource path: no n×d
	// float64 matrix ever exists, only one 4096-row block of decode
	// scratch plus the O(n) score/probability vectors. Binary problem
	// (one Fisher block) to keep the absolute runtime CI-friendly; the
	// per-pass cost model is unchanged (two GEMM + row-dot sweeps per
	// class per block). The shard files are packed once and shared by the
	// ROUND-rescore and streamed-RELAX benchmarks.
	setup, err := buildStreamPool()
	if err != nil {
		log.Fatal(err)
	}
	defer setup.cleanup()
	rep.Results = append(rep.Results, decodeBench(run, setup))
	rep.Results = append(rep.Results, streamBench(run, setup))
	if e, err := relaxStreamBench(setup); err != nil {
		log.Fatal(err)
	} else {
		rep.Results = append(rep.Results, e)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d benchmarks)", *out, len(rep.Results))
	}

	if *against != "" {
		if err := diffAgainst(*against, rep, *tol); err != nil {
			log.Fatal(err)
		}
		log.Printf("within tolerance of baseline %s", *against)
	}
}

// blockSweepBench times one warm fused sweep over an n×64 pool with c
// Fisher blocks and s = 10 probe vectors: hessian.MatVecBlockWS, or
// hessian.QuadAccumBlockWS when quad is set.
func blockSweepBench(n, c int, quad bool) func(b *testing.B) {
	const d, s = 64, 10
	_, pool := experiments.SynthSets(1, n, d, c, 6)
	ws := mat.NewWorkspace()
	u := mat.NewDense(s, pool.Ed())
	v := mat.NewDense(s, pool.Ed())
	rnd.New(7).Rademacher(u.Data)
	rnd.New(8).Normal(v.Data, 0, 1)
	dst := mat.NewDense(s, pool.Ed())
	g := make([]float64, n)
	w := make([]float64, n)
	mat.Fill(w, 1/float64(n))
	sweep := func() { hessian.MatVecBlockWS(ws, pool, dst, v, w) }
	if quad {
		sweep = func() { hessian.QuadAccumBlockWS(ws, pool, g, u, v, -1.0/s) }
	}
	return func(b *testing.B) {
		sweep() // warm the workspace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	}
}

// streamSetup is the shared million-row shard-pool fixture: two mmap'd
// float32 shard files (exercising the cross-file boundary), the resident
// n×1 reduced probability column of a binary problem, and a small
// resident labeled set for Ho.
type streamSetup struct {
	dir     string
	src     *dataset.ShardSource
	probs   *mat.Dense
	labeled *hessian.Set
}

const (
	streamN = 1_000_000
	streamD = 64
)

// buildStreamPool streams synthetic rows into the two shards block by
// block — the full matrix is never resident. Probabilities (binary
// problem, one reduced column) stay in memory: n×1 float64, the same O(n)
// class as z and scores.
func buildStreamPool() (*streamSetup, error) {
	const (
		n = streamN
		d = streamD
	)
	dir, err := os.MkdirTemp("", "firal-stream-bench")
	if err != nil {
		return nil, err
	}
	rng := rnd.New(11)
	probs := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		probs.Set(i, 0, 0.1+0.8*rng.Float64())
	}
	paths := []string{filepath.Join(dir, "pool-0.shard"), filepath.Join(dir, "pool-1.shard")}
	splits := [][2]int{{0, 600_000}, {600_000, n}}
	block := mat.NewDense(4096, d)
	for s, span := range splits {
		w, err := dataset.CreateShard(paths[s], d)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		for lo := span[0]; lo < span[1]; lo += block.Rows {
			hi := min(lo+block.Rows, span[1])
			b := block.RowSlice(0, hi-lo)
			rng.Normal(b.Data[:(hi-lo)*d], 0, 1)
			if err := w.AppendBlock(b); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	src, err := dataset.OpenShards(paths...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	labeled, _ := experiments.SynthSets(20, 1, d, 1, 7)
	return &streamSetup{dir: dir, src: src, probs: probs, labeled: labeled}, nil
}

func (s *streamSetup) cleanup() {
	s.src.Close()
	os.RemoveAll(s.dir)
}

// decodeBench times reading the first 100,000 rows of the shard pool in
// DefaultBlockRows blocks: the float32 → float64 widen every streamed
// sweep pays per block, with the payload already in the page cache.
// Extra records the payload rate in GB/s.
func decodeBench(run func(string, func(b *testing.B)) entry, setup *streamSetup) entry {
	const n, d = 100_000, streamD
	block := mat.NewDense(dataset.DefaultBlockRows, d)
	tail := block.RowSlice(0, n%block.Rows) // the ragged last block
	read := func(b *testing.B) {
		for lo := 0; lo < n; lo += block.Rows {
			dst := block
			if n-lo < block.Rows {
				dst = tail
			}
			if err := setup.src.ReadRows(lo, lo+dst.Rows, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
	e := run("shard_decode_n1e5_d64", func(b *testing.B) {
		read(b) // fault the pages in
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b)
		}
	})
	e.Extra = map[string]float64{"gb_per_s": 4 * n * d / e.NsPerOp}
	return e
}

// streamBench measures one full ROUND rescoring pass over the 1,000,000×64
// shard pool — the past-resident-RAM configuration of the PoolSource
// work. Σ⋄ blocks come from the same blocked Gram path, then
// RoundState.Scores is timed over the hessian.Stream.
func streamBench(run func(string, func(b *testing.B)) entry, setup *streamSetup) entry {
	const n, d = streamN, streamD
	pool := hessian.NewStream(setup.src, setup.probs, 0)
	ws := mat.NewWorkspace()
	z := make([]float64, n)
	mat.Fill(z, 10/float64(n))
	sig := hessian.BlockDiagSumInto(ws, pool, nil, z)
	ho := hessian.BlockDiagSumInto(ws, setup.labeled, nil, nil)
	for k := range sig {
		sig[k].AddScaled(1, ho[k])
	}
	st, err := firal.NewRoundState(sig, ho, 10, 8*math.Sqrt(float64(d)), timing.New())
	if err != nil {
		log.Fatal(err)
	}
	scores := make([]float64, n)
	return run("pool_stream_n1e6_d64", func(b *testing.B) {
		st.Scores(pool, scores) // warm (maps pages, sizes block scratch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Scores(pool, scores)
		}
	})
}

// relaxStreamBench measures one streamed RELAX mirror-descent iteration
// (the paper's s = 10 probes, CG capped for a deterministic sweep budget)
// over the same million-row shard pool — the configuration the block-CG
// and lane work targets. PR 5's block CG minimized the decode COUNT (one
// pool sweep per CG iteration instead of one per probe column). The
// headline entry is the production stack (WithPrefetch) at the
// process's workers, where every sweep runs on lanes that decode their
// own blocks and the read-ahead stays idle. The read-ahead serves
// one-lane sweeps only, so its A/B runs at one worker: the synchronous
// path into Extra["prefetch_off_ns"], the prefetched path into
// Extra["workers1_ns"] (also how the streamed sweeps scale with
// workers), and their ratio into Extra["prefetch_speedup"]. Overlap
// needs a spare core: at GOMAXPROCS = 1 the background read only runs
// when the consumer blocks, so prefetch_speedup ≈ 1 there (read it next
// to the report's num_cpu).
//
// The run hard-fails unless every sample is equivalent in every way that
// matters: bit-identical RELAX weights (selection_match — read-ahead and
// lanes must change decode timing, never arithmetic) and identical
// decode traffic measured by a dataset.CountingSource sitting BELOW the
// prefetcher (decode_sweeps — the forward-sweep prediction must never
// read a window the solver doesn't then consume). Also recorded: the
// total CG iteration count and the per-column path's
// cg_iterations + (4·probes+1) sweep estimate.
func relaxStreamBench(setup *streamSetup) (entry, error) {
	const probes = 10
	counting := dataset.NewCountingSource(setup.src)
	opts := firal.RelaxOptions{
		FixedIterations: 1, Probes: probes, CGTol: 0.1, CGMaxIter: 8, Seed: 13,
	}
	ctx := context.Background()

	// Both problem stacks sit on the same CountingSource, so every sample
	// — synchronous or prefetched — counts its decode traffic for free;
	// the prefetched stack adds WithPrefetch, the production composition
	// hook, ABOVE the counter so asynchronous reads land on the counted
	// ReadRows exactly like synchronous ones.
	pOff := firal.NewProblem(setup.labeled, hessian.NewStream(counting, setup.probs, 0))
	pOn := firal.NewProblem(setup.labeled,
		hessian.NewStream(dataset.WithPrefetch(ctx, counting, 0), setup.probs, 0))
	sample := func(p *firal.Problem, workers int) (*firal.RelaxResult, float64, float64, error) {
		if workers > 0 {
			defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(workers))
		}
		counting.Reset()
		t0 := time.Now()
		r, err := firal.RelaxFast(ctx, p, 10, opts)
		return r, float64(time.Since(t0).Nanoseconds()), counting.Sweeps(), err
	}

	// The samples alternate (synchronous at one worker, prefetched at one
	// worker, prefetched at the process's workers) and each keeps its
	// best of three, so a machine-load swing hits every path instead of
	// whichever ran last and the cold first pass (page mapping,
	// scratch-pool fill) never decides a figure. Every sample is checked
	// against the first synchronous one: weights bit for bit, sweeps
	// exactly equal.
	paths := []struct {
		name    string
		p       *firal.Problem
		workers int // 0: the process's
		ns      float64
	}{
		{"synchronous at one worker", pOff, 1, math.Inf(1)},
		{"prefetched at one worker", pOn, 1, math.Inf(1)},
		{"prefetched", pOn, 0, math.Inf(1)},
	}
	var ref *firal.RelaxResult
	var refSweeps float64
	for round := 0; round < 3; round++ {
		for i := range paths {
			path := &paths[i]
			r, ns, sweeps, err := sample(path.p, path.workers)
			if err != nil {
				return entry{}, err
			}
			path.ns = math.Min(path.ns, ns)
			if ref == nil {
				ref, refSweeps = r, sweeps
				continue
			}
			for j := range ref.Z {
				if math.Float64bits(r.Z[j]) != math.Float64bits(ref.Z[j]) {
					return entry{}, fmt.Errorf("%s RELAX diverges from the synchronous path: z[%d] = %x vs %x",
						path.name, j, math.Float64bits(r.Z[j]), math.Float64bits(ref.Z[j]))
				}
			}
			if sweeps != refSweeps {
				return entry{}, fmt.Errorf("the decode traffic differs: %.2f sweeps %s, %.2f synchronous at one worker",
					sweeps, path.name, refSweeps)
			}
		}
	}
	offNs, oneNs, onNs := paths[0].ns, paths[1].ns, paths[2].ns

	// The headline entry is the best prefetched pass: at 1 s benchtime a
	// ~9 s op gets a single testing.Benchmark iteration anyway, and the
	// min-of-3 from the loop is the more noise-robust figure.
	e := entry{Name: "relax_stream_n1e6_d64", NsPerOp: onNs}
	fmt.Printf("%-28s %14.0f ns/op %8d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	e.Extra = map[string]float64{
		"decode_sweeps":            refSweeps,
		"cg_iterations":            float64(ref.CGIterations),
		"per_column_sweeps_legacy": float64(ref.CGIterations + (4*probes+1)*ref.Iterations),
		"prefetch_off_ns":          offNs,
		"prefetch_speedup":         offNs / oneNs,
		"selection_match":          1,
		"workers1_ns":              oneNs,
	}
	fmt.Printf("%-28s one worker   %12.0f ns/op prefetched, %12.0f synchronous (%.2fx overlap gain, %.0f sweeps every path)\n",
		"", oneNs, offNs, offNs/oneNs, refSweeps)
	fmt.Printf("%-28s %.2fx worker scaling\n", "", oneNs/onNs)
	return e, nil
}

// diffAgainst compares the fresh results to a recorded baseline. Timing
// — ns/op, and extra.workers1_ns where the baseline has it — gets a
// multiplicative tolerance (CI machines differ from the recording
// machine); allocation counts are near-exact, since they are what the
// zero-alloc work pins. A baseline row with no fresh result, or with
// workers1_ns that the fresh row lacks, fails the diff, so a benchmark
// that stops running cannot pass silently; a fresh row with no baseline
// is a new benchmark and is not diffed.
func diffAgainst(path string, rep report, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	fresh := make(map[string]entry, len(rep.Results))
	for _, e := range rep.Results {
		fresh[e.Name] = e
	}
	var failures []string
	for _, b := range base.Results {
		e, ok := fresh[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in the baseline but not run", b.Name))
			continue
		}
		if maxNs := b.NsPerOp * tol; e.NsPerOp > maxNs {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f × tol %g", e.Name, e.NsPerOp, b.NsPerOp, tol))
		}
		// A sweep's one-worker time is diffed like its ns/op, so a
		// regression that only the serial path sees still fails.
		if b1, ok := b.Extra["workers1_ns"]; ok {
			e1, ok := e.Extra["workers1_ns"]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: the baseline has workers1_ns but the run does not", e.Name))
			case e1 > b1*tol:
				failures = append(failures, fmt.Sprintf(
					"%s: workers1_ns %.0f exceeds baseline %.0f × tol %g", e.Name, e1, b1, tol))
			}
		}
		// Allocation counts catch gross regressions (a reintroduced
		// per-iteration or O(n) allocation) with a small absolute slack:
		// quick mode runs few iterations, so a GC ageing the scratch pools
		// mid-measurement can charge a handful of one-off refills to a
		// single op. The exact zero-alloc guarantees are enforced by the
		// warmed AllocsPerRun pins (CI alloc-multicore job), not here.
		allowedAllocs := b.AllocsPerOp + max(8, b.AllocsPerOp/4)
		if e.AllocsPerOp > allowedAllocs {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op exceeds baseline %d (allowed %d)", e.Name, e.AllocsPerOp, b.AllocsPerOp, allowedAllocs))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression vs %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}
