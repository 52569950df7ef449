// Package firal is a Go reproduction of "A Scalable Algorithm for Active
// Learning" (Chen, Wen, Biros; SC24, arXiv:2409.07392): the Approx-FIRAL
// batch active-learning algorithm for multiclass logistic regression,
// together with the exact FIRAL baseline, the Random/K-Means/Entropy
// comparison selectors, a distributed-memory parallel implementation over
// an in-process MPI runtime, and the synthetic embedding benchmarks of the
// paper's Table V.
//
// The import path of this module is "repro"; the package name is firal.
//
// # Quick start
//
// Sessions are driven through the context-aware API: selectors come from
// the registry by name, the schedule and policies from functional run
// options, and per-round results stream through an observer while the
// session runs:
//
//	cfg := firal.CIFAR10Like().Scale(0.1).Generate(42)
//	learner, _ := firal.NewLearner(cfg)
//	selector, _ := firal.New("approx-firal", firal.SelectorOptions{})
//	reports, err := learner.RunContext(ctx, selector,
//	    firal.WithRounds(cfg.Rounds),
//	    firal.WithBudget(cfg.Budget),
//	    firal.WithObserver(func(r *firal.RoundReport) {
//	        fmt.Printf("labels=%d eval accuracy=%.3f\n", r.LabeledCount, r.EvalAccuracy)
//	    }),
//	    firal.WithStopCriterion(firal.TargetAccuracy(0.95)),
//	)
//
// Cancelling ctx aborts the session mid-selection — the FIRAL selectors
// poll the context inside the RELAX mirror-descent loop and the inner CG
// solves — and RunContext returns the reports of the rounds completed so
// far together with the context's error. Stop criteria (TargetAccuracy,
// MaxDuration, PoolExhausted, or any custom StopCriterion) end long runs
// on policy instead of a fixed round count.
//
// # Selector registry
//
// The eight built-in strategies — Random, K-Means, Entropy, Margin,
// Least-Confidence, Exact-FIRAL, Approx-FIRAL and Dist-FIRAL — register
// themselves at init; Names lists them and New instantiates one by
// case-insensitive name. Custom strategies implement the Selector
// interface (or wrap a function with SelectorFunc) and may Register a
// factory to become name-addressable alongside the built-ins.
//
// # Performance substrate
//
// The dense kernels under internal/mat are cache-blocked and panel-packed
// (a GotoBLAS-style decomposition, with a 4×8 register micro-kernel and
// a packed-operand type for operands that many products reuse). The
// micro-kernel and the dot, axpy and Gram loops run AVX-512F or 256-bit
// AVX on amd64 hosts that have them, one level picked once from CPUID;
// every other host runs portable Go loops that give the same bits. The solver hot paths draw their scratch from a mat.Workspace — a
// size-keyed arena of reusable buffers.
// The Workspace contract: a workspace is owned by exactly one goroutine
// (the simulated MPI ranks each carry their own); buffers obtained from
// it belong to the caller until returned; contents are unspecified on
// acquisition; and a nil workspace degrades to allocate-per-call
// everywhere one is accepted.
//
// # Streaming pools
//
// Pool features are consumed through a block-streaming abstraction
// rather than one resident matrix. A dataset.PoolSource serves an n×d
// pool in contiguous row windows (NumRows, Dim, ReadRows, Close) with
// three implementations — an in-memory matrix (zero-copy), memory-mapped
// little-endian float32 shard files, and numeric CSV — and the solver
// kernels visit it block by block through the hessian.Pool interface,
// which hessian.Stream implements once: a resident hessian.Set is a
// Stream over its matrix, served zero-copy. The contract: sources
// surface data errors at open/validation time and tolerate concurrent
// in-range ReadRows; class probabilities stay resident (n×c, a factor
// d/c smaller than the features); scratch is bounded by one block per
// lane, of dataset.BlockRowsFor the pool's rows (at most
// dataset.DefaultBlockRows); and every sweep folds per-block partials
// into a zeroed result at every block count, so the zero-alloc steady-state pins hold for resident and
// streamed pools alike. Selection from a million-point pool
// therefore runs without materializing an n×d float64 matrix (see the
// pool_stream_n1e6_d64 entry in BENCH_round.json, cmd/firal's -shards
// mode, and examples/streaming); only the exact Algorithm-1 solvers,
// which assemble dense pool Hessians, require residency and refuse a
// streamed pool with a typed error. ARCHITECTURE.md documents the full
// contract.
//
// # Selection as a service
//
// cmd/firald serves the selectors as a long-lived HTTP/JSON service:
// tenants register pools (shard paths or inline CSV), extend labels as
// the active-learning dialogue progresses, and run asynchronous,
// admission-controlled train+select rounds whose RELAX state is
// checkpointed every iteration — a killed server restarts, re-enqueues
// the interrupted round, and resumes the mirror-descent trajectory
// bit-for-bit. See ARCHITECTURE.md § Service layer and examples/service
// for the API walkthrough.
//
// # Distributed transport
//
// The message-passing collectives under internal/mpi are written against
// a pluggable Transport (tagged point-to-point send/recv with
// deadlines): the in-process mailbox world behind mpi.Run, and a
// length-prefixed TCP transport with rendezvous bootstrap for real
// multi-process runs (cmd/firal -peers host:port -ranks p -rank r).
// Failures are sticky error values, not panics: a Comm keeps its first
// transport error (Comm.Err), a streamed pool its
// first read error, and the solvers' per-iteration poll agrees on them
// so every rank stops at the same iteration. With an operation timeout
// set, a dead rank surfaces as mpi.ErrRankLost; in-process, mpi.Run
// closes a failed rank's transport so its peers see the same. Survivors
// agree on the dead set (Comm.Heal), and
// distfiral.SelectResilient re-shards the survivors and resumes the
// interrupted RELAX iteration from the last globally-agreed checkpoint,
// reproducing bit-for-bit what a fresh run at the reduced rank count
// would select. A transport conformance suite (internal/mpi/mpitest) and
// fault-injection tests pin the contract; see ARCHITECTURE.md
// § Distributed transport and examples/distributed.
//
// # Growing pools
//
// Pools may grow between rounds: dataset.LiveSource appends segments
// visibly to open readers (atomic snapshots, generation-counted), and
// RelaxOptions.WarmStart seeds mirror descent from the previous round's
// weights, reprojected onto the grown simplex by firal.ReprojectSimplex.
// The service layer exposes pool appends (POST /v1/sessions/{id}/pool)
// and warm-starts each round from the last one's converged weights. See
// ARCHITECTURE.md § Growing pools.
//
// Parallel loops run on a persistent worker pool (internal/parallel):
// workers live for the life of the process, parked on channels when
// idle, so a steady-state kernel call forks no goroutines. The pool is
// sized by GOMAXPROCS, or by parallel.SetMaxWorkers at a process entry
// point (cmd/firal -workers); the worker count is a process setting that
// every session in the process shares. Hot paths hand the pool pre-built
// dispatch funcs from pooled task records — never fresh closures, whose
// captures would heap-allocate per call. Workers split output elements,
// never the sum of one element, so no selection bit depends on the
// worker count: it changes speed, never a selection.
//
// With a warm workspace the Lemma-2 Hessian matvec, CG iterations, the
// preconditioner rebuild (in-place Cholesky refactorization), and the
// full ROUND candidate loop — rescore, eigensolves, ν bisection,
// eigenbasis rebuild — run at 0 allocs/op on multicore as well as serial
// (pinned by AllocsPerRun regression tests and a dedicated CI job).
// cmd/firal-bench records the kernel trajectory in BENCH_round.json and
// can diff a fresh run against it (-against/-tol).
//
// Implementation packages live under internal/: internal/firal holds the
// RELAX/ROUND solvers, internal/mat the dense linear algebra,
// internal/mpi the message-passing runtime, and internal/experiments the
// harnesses that regenerate every table and figure of the paper (see
// DESIGN.md and EXPERIMENTS.md).
package firal
