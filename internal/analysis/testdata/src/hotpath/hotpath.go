// Package hotpath exercises the hotpath analyzer: every allocation
// construct inside a //firal:hotpath function, the return-statement fmt
// exemption, the reslice-append exemption, and //firal:allow(alloc)
// suppression.
package hotpath

import (
	"fmt"

	"repro/internal/parallel"
)

type state struct {
	buf   []float64
	cache map[string]int
}

// scores is a steady-state kernel.
//
//firal:hotpath
func (s *state) scores(x []float64) float64 {
	tmp := make([]float64, len(x)) // want "make in //firal:hotpath function"
	p := new(state)                // want "new in //firal:hotpath function"
	_ = p
	s.buf = append(s.buf, x...) // want "append may grow"
	sum := 0.0
	for _, v := range tmp {
		sum += v
	}
	return sum
}

//firal:hotpath
func grow(dst, src []float64) []float64 {
	dst = append(dst[:0], src...) // reslice reuses capacity: no finding
	return dst
}

//firal:hotpath
func lookup(k string) map[string]int {
	m := map[string]int{k: 1} // want "map literal in //firal:hotpath function"
	return m
}

//firal:hotpath
func closures(xs []float64) float64 {
	f := func(v float64) float64 { return v * v } // want "closure literal in //firal:hotpath function"
	return f(xs[0])
}

// pooledTask mimics the pooled kernel-task pattern: the dispatch func
// is built once, closing over the record, and reused on every call.
type pooledTask struct {
	xs []float64
	fn func(lo, hi int)
}

var pooled = func() *pooledTask {
	t := &pooledTask{}
	t.fn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.xs[i] *= 2
		}
	}
	return t
}()

//firal:hotpath
func dispatch(xs []float64) {
	pooled.xs = xs
	parallel.ForChunk(len(xs), pooled.fn) // pooled record: no finding
	pooled.xs = nil
	parallel.ForChunk(len(xs), func(lo, hi int) { // want "closure literal in //firal:hotpath function"
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

//firal:hotpath
func logging(x float64) error {
	fmt.Println("x =", x) // want `fmt.Println in //firal:hotpath function`
	if x < 0 {
		return fmt.Errorf("negative: %g", x) // cold error exit: no finding
	}
	return nil
}

//firal:hotpath
func boxing(x float64) interface{} {
	v := interface{}(x) // want "conversion to interface type interface{} boxes"
	return v
}

//firal:hotpath
func allowed(n int) []float64 {
	//firal:allow(alloc) — cold setup branch, sized once per session
	buf := make([]float64, n)
	tmp := make([]float64, n) //firal:allow(alloc) trailing form
	copy(buf, tmp)
	return buf
}

// nilGuarded uses the allocate-on-nil API convenience: steady-state
// callers pass dst, so the guarded make never runs hot.
//
//firal:hotpath
func nilGuarded(dst, src []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(src))
	} else if len(dst) != len(src) {
		panic(fmt.Sprintf("length mismatch: %d != %d", len(dst), len(src))) // cold exit: no finding
	}
	copy(dst, src)
	return dst
}

// nilGuardedOther allocates a DIFFERENT variable under the nil check:
// not the convenience idiom, still a finding.
//
//firal:hotpath
func nilGuardedOther(dst, src []float64) []float64 {
	if dst == nil {
		tmp := make([]float64, len(src)) // want "make in //firal:hotpath function"
		dst = tmp
	}
	copy(dst, src)
	return dst
}

// deferredCleanup: an immediately-deferred literal is the standard
// cleanup idiom and does not escape — but its body is still checked.
//
//firal:hotpath
func deferredCleanup(dst []float64) {
	defer func() {
		dst = append(dst, 0) // want "append may grow"
	}()
	defer func() { dst[0] = 0 }() // cleanup literal itself: no finding
}

// cold is NOT annotated: the same constructs are fine here.
func cold(n int) map[string]int {
	buf := make([]float64, n)
	_ = append(buf, 1)
	fmt.Println(n)
	return map[string]int{"n": n}
}
