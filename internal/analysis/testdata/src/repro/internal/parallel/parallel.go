// Package parallel is a fixture stub standing in for the real
// repro/internal/parallel: same names, no behavior. The analyzers match
// by package-path suffix, so fixtures importing this path exercise the
// same code paths as the real module.
package parallel

func SetMaxWorkers(n int) int { return n }

func Workers() int { return 1 }

func ForChunk(n int, fn func(lo, hi int)) {}

func ForChunkMin(n, minPer int, fn func(lo, hi int)) {}
