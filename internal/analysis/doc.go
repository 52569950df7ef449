// Package analysis implements firal-vet: a go/analysis suite that
// machine-enforces the repo's standing contracts (ARCHITECTURE.md
// § Contract enforcement). Prose contracts rot; these analyzers turn
// each one into a build-time error, run over the whole module in CI via
// `go vet -vettool=bin/firal-vet ./...`.
//
// The suite:
//
//   - hotpath: functions annotated //firal:hotpath must not contain
//     make/new, growing appends, map literals, closure literals
//     (including one handed to parallel.ForChunk/ForChunkMin,
//     where a pooled task record belongs), explicit interface-boxing
//     conversions, or fmt calls outside return statements
//     (Workspace-arena and worker-pool contracts).
//   - maxworkers: parallel.SetMaxWorkers, the process-wide worker
//     count, is forbidden outside internal/parallel, main packages and
//     tests (process worker-count contract).
//   - sentinelerr: sentinel errors (ErrResidentPool, ErrSaturated,
//     ErrRankLost, any package-level Err*) are compared with
//     errors.Is, never == or switch cases (streaming contract).
//   - lockorder: in internal/server, sess.mu must never be held when
//     s.mu is acquired (documented order s.mu → sess.mu), and RoundMeta
//     fields are mutated only in the round-owning files.
//   - ctxpoll: loops in ctx-taking functions that drive streaming
//     decode or CG kernels must poll the context (per-iteration
//     cancellation contract).
//
// Escape hatch: a `//firal:allow(<category>)` comment on — or on the
// line above — a statement suppresses that analyzer category for the
// whole statement. Categories: alloc, limit, sentinel, lockorder,
// ctxpoll. Use it for cold setup branches and deliberate,
// documented exceptions; the comment is grep-able, so every exception
// stays auditable.
package analysis
