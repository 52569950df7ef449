package hessian

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
)

// skipUnderRace skips allocation-count assertions when the race detector
// is compiled in: its instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

func allocSet(n, d, c int) *Set {
	x := mat.NewDense(n, d)
	h := mat.NewDense(n, c)
	rng := rnd.New(9)
	rng.Normal(x.Data, 0, 1)
	for i := 0; i < n; i++ {
		row := h.Row(i)
		var sum float64
		for k := range row {
			row[k] = 0.1 + float64(k%3)
			sum += row[k]
		}
		for k := range row {
			row[k] /= sum * 1.5 // interior, sums below 1 (reduced classes)
		}
	}
	return NewSet(x, h)
}

// TestMatVecWSZeroAlloc pins the steady-state allocation behaviour of the
// Lemma-2 fast matvec on one vector (MatVecBlockWS at s=1) with a warm
// Workspace: after the first call, none.
func TestMatVecWSZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s := allocSet(300, 24, 7)
	ws := mat.NewWorkspace()
	v := make([]float64, s.Ed())
	dst := make([]float64, s.Ed())
	w := make([]float64, s.N())
	rnd.New(3).Normal(v, 0, 1)
	mat.Fill(w, 0.5)
	if allocs := testing.AllocsPerRun(50, func() {
		matVec(ws, s, dst, v, w)
	}); allocs != 0 {
		t.Fatalf("one-vector MatVecBlockWS allocates %.1f objects per call with a warm workspace", allocs)
	}
}

func TestQuadAccumWSZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s := allocSet(300, 24, 7)
	ws := mat.NewWorkspace()
	u := make([]float64, s.Ed())
	v := make([]float64, s.Ed())
	dst := make([]float64, s.N())
	rnd.New(4).Normal(u, 0, 1)
	rnd.New(5).Normal(v, 0, 1)
	if allocs := testing.AllocsPerRun(50, func() {
		quadAccum(ws, s, dst, u, v, -0.1)
	}); allocs != 0 {
		t.Fatalf("one-vector QuadAccumBlockWS allocates %.1f objects per call with a warm workspace", allocs)
	}
}

// BenchmarkMatVecWS measures the Lemma-2 fast matvec on one vector with a
// warm workspace; -benchmem must report 0 allocs/op on any core count
// (the persistent worker pool dispatches without forking or allocating).
func BenchmarkMatVecWS(b *testing.B) {
	s := allocSet(2000, 64, 9)
	ws := mat.NewWorkspace()
	v := make([]float64, s.Ed())
	dst := make([]float64, s.Ed())
	w := make([]float64, s.N())
	rnd.New(3).Normal(v, 0, 1)
	mat.Fill(w, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matVec(ws, s, dst, v, w)
	}
}

func TestBlockDiagSumIntoZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s := allocSet(300, 24, 7)
	ws := mat.NewWorkspace()
	blocks := BlockDiagSumInto(ws, s, nil, nil)
	if allocs := testing.AllocsPerRun(50, func() {
		BlockDiagSumInto(ws, s, blocks, nil)
	}); allocs != 0 {
		t.Fatalf("BlockDiagSumInto allocates %.1f objects per call with reused blocks", allocs)
	}
}

// TestHessianKernelsZeroAllocMulticore re-pins the three workspace-backed
// kernels with four workers engaged: with the persistent worker pool and
// the pooled chunk tasks the parallel fan-out no longer costs O(workers)
// transient allocations per call — multicore is as clean as serial.
func TestHessianKernelsZeroAllocMulticore(t *testing.T) {
	skipUnderRace(t)
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	s := allocSet(2000, 64, 9)
	ws := mat.NewWorkspace()
	u := make([]float64, s.Ed())
	v := make([]float64, s.Ed())
	dst := make([]float64, s.Ed())
	g := make([]float64, s.N())
	w := make([]float64, s.N())
	rnd.New(3).Normal(u, 0, 1)
	rnd.New(4).Normal(v, 0, 1)
	mat.Fill(w, 0.5)
	blocks := BlockDiagSumInto(ws, s, nil, w)
	warmAndPin := func(name string, fn func()) {
		fn()
		if allocs := testing.AllocsPerRun(30, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call at 4 workers", name, allocs)
		}
	}
	warmAndPin("MatVecBlockWS s=1", func() { matVec(ws, s, dst, v, w) })
	warmAndPin("QuadAccumBlockWS s=1", func() { quadAccum(ws, s, g, u, v, -0.1) })
	warmAndPin("BlockDiagSumInto", func() { BlockDiagSumInto(ws, s, blocks, w) })
}
