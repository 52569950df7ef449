// Package pooledfork exercises the pooledfork analyzer: func literals
// handed to the parallel dispatchers inside //firal:hotpath functions.
package pooledfork

import "repro/internal/parallel"

// task mimics the pooled kernel-task pattern: the dispatch func is
// built once, closing over the record, and reused on every call.
type task struct {
	xs []float64
	fn func(lo, hi int)
}

func newTask() *task {
	t := &task{}
	t.fn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.xs[i] *= 2
		}
	}
	return t
}

var pooled = newTask()

//firal:hotpath
func scale(xs []float64) {
	pooled.xs = xs
	parallel.ForChunk(len(xs), pooled.fn) // pooled record: no finding
	pooled.xs = nil
}

//firal:hotpath
func scaleLiteral(xs []float64) {
	parallel.ForChunk(len(xs), func(lo, hi int) { // want "func literal passed to parallel dispatch"
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

//firal:hotpath
func allowedLiteral(xs []float64) {
	//firal:allow(closure) — cold path run once at session setup
	parallel.For(len(xs), func(i int) { xs[i] = 0 })
}

// coldLiteral is not annotated: closure dispatch is fine off the hot
// path.
func coldLiteral(xs []float64) {
	parallel.ForChunk(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}
