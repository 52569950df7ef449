package mat

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// Property and fuzz tests comparing the blocked/parallel GEMM family
// against the Ref* row-sweep oracles on ragged shapes — m, n, k that are
// not multiples of the 4×8 micro-kernel or of the gemmMC/gemmKC/gemmNC
// blocking parameters, where packing-padding bugs would live.

// lcg fills data deterministically without pulling in internal/rnd.
type lcg uint64

func (s *lcg) fill(data []float64) {
	for i := range data {
		*s = *s*6364136223846793005 + 1442695040888963407
		data[i] = float64(int64(uint64(*s)>>33))/float64(1<<30) - 1
	}
}

// relDiff returns max |a-b| scaled by the magnitude of the reference.
func relDiff(got, want *Dense) float64 {
	scale := 1.0
	for i := 0; i < want.Rows; i++ {
		for _, v := range want.Row(i) {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	return maxAbsDiff(got, want) / scale
}

func checkGEMMShape(t *testing.T, m, n, k int, seed uint64) {
	t.Helper()
	s := lcg(seed)
	a := NewDense(m, k)
	b := NewDense(k, n)
	at := NewDense(k, m) // for MulTransA: op(at) = a
	bt := NewDense(n, k) // for MulTransB: op(bt) = b
	s.fill(a.Data)
	s.fill(b.Data)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at.Set(i, j, a.At(j, i))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt.Set(i, j, b.At(j, i))
		}
	}
	const tol = 1e-12
	want := RefMul(nil, a, b)
	if got := Mul(nil, a, b); relDiff(got, want) > tol {
		t.Errorf("Mul m=%d n=%d k=%d: rel diff %g", m, n, k, relDiff(got, want))
	}
	wantTA := RefMulTransA(nil, at, b)
	if got := MulTransA(nil, at, b); relDiff(got, wantTA) > tol {
		t.Errorf("MulTransA m=%d n=%d k=%d: rel diff %g", m, n, k, relDiff(got, wantTA))
	}
	wantTB := RefMulTransB(nil, a, bt)
	if got := MulTransB(nil, a, bt); relDiff(got, wantTB) > tol {
		t.Errorf("MulTransB m=%d n=%d k=%d: rel diff %g", m, n, k, relDiff(got, wantTB))
	}
	checkPackedRight(t, a, bt, seed)
}

// checkPackedRight requires MulPackedRight, which reads its left operand
// in place at the avx512 level, to give the bits of the packing path
// (mulPackedRightPacked) on a copy of a with a row stride wider than its
// columns, against a column window of bt's packed rows that the seed
// picks: it may start inside a lane panel and need not be a multiple of
// the tile's 32 columns. dst has padding columns, which neither path
// may write.
func checkPackedRight(t *testing.T, a, bt *Dense, seed uint64) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, bt.Rows
	x := &Dense{Rows: m, Cols: k, Stride: k + 3, Data: make([]float64, m*(k+3))}
	for i := 0; i < m; i++ {
		copy(x.Row(i), a.Row(i))
	}
	var pb Packed
	pb.PackRight(bt)
	c0 := int(seed % uint64(n))
	w := max(1, n-c0-int(seed>>8%5))
	got := &Dense{Rows: m, Cols: w, Stride: w + 5, Data: make([]float64, m*(w+5))}
	s := lcg(seed + 1)
	s.fill(got.Data)
	want := &Dense{Rows: m, Cols: w, Stride: got.Stride, Data: append([]float64(nil), got.Data...)}
	MulPackedRight(got, x, &pb, c0)
	mulPackedRightPacked(want, x, &pb, c0)
	for i := range got.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("MulPackedRight m=%d k=%d n=%d window [%d, %d): element %d = %x at %s, packed %x",
				m, k, n, c0, c0+w, i, math.Float64bits(got.Data[i]), kernel, math.Float64bits(want.Data[i]))
		}
	}
}

// TestBlockedGEMMRaggedShapes sweeps boundary shapes around the
// micro-kernel (4), the parallel row floor (8), and the cache-blocking
// parameters (64/256/512), serially and with the worker pool engaged.
func TestBlockedGEMMRaggedShapes(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65}
	if !testing.Short() {
		dims = append(dims, 127, 129, 255, 257)
	}
	for _, workers := range []int{1, 4} {
		prev := parallel.SetMaxWorkers(workers)
		// Ragged triples: rotate the dimension list against itself so each
		// (m, n, k) mixes small/large and aligned/unaligned extents.
		for i, m := range dims {
			n := dims[(i+5)%len(dims)]
			k := dims[(i+9)%len(dims)]
			checkGEMMShape(t, m, n, k, uint64(i+1))
		}
		// Shapes straddling the blocked-path gate and blocking boundaries.
		for _, tr := range [][3]int{
			{16, 8, 256}, {16, 8, 257}, {17, 9, 255},
			{64, 512, 9}, {65, 513, 8}, {63, 511, 17},
			{600, 32, 32}, {601, 33, 31},
		} {
			checkGEMMShape(t, tr[0], tr[1], tr[2], uint64(tr[0]*tr[1]))
		}
		parallel.SetMaxWorkers(prev)
	}
}

// FuzzGEMMShapes is the fuzzing entry for the same property, the packed
// product that reads its left operand in place included; `go test` runs
// the seed corpus, and `go test -fuzz=FuzzGEMMShapes ./internal/mat`
// explores further shapes. The seeds give ragged row counts (m % 4 ≠ 0),
// windows that start inside a lane panel and end inside a 32-column tile,
// and inner dimensions past one k-panel.
func FuzzGEMMShapes(f *testing.F) {
	f.Add(uint16(5), uint16(9), uint16(3), uint64(1))
	f.Add(uint16(33), uint16(17), uint16(65), uint64(2))
	f.Add(uint16(64), uint16(512), uint16(256), uint64(3))
	f.Add(uint16(601), uint16(33), uint16(31), uint64(4))
	f.Add(uint16(67), uint16(100), uint16(64), uint64(0x305))
	f.Add(uint16(10), uint16(47), uint16(300), uint64(0x20b))
	f.Fuzz(func(t *testing.T, m, n, k uint16, seed uint64) {
		mm := int(m%700) + 1
		nn := int(n%700) + 1
		kk := int(k%700) + 1
		checkGEMMShape(t, mm, nn, kk, seed|1)
	})
}

// TestWeightedGramMatchesRefUnderPool checks the Gram against the serial
// oracle, including the zero-weight row skip and odd and even
// dimensions, and requires the bits of the 1-worker result at 2, 3 and 4
// workers: the Gram runs on the calling goroutine, so no worker count
// moves a bit.
func TestWeightedGramMatchesRefUnderPool(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	for _, rows := range []int{64, 255, 256, 257, 1000} {
		for _, d := range []int{1, 3, 8, 17, 64, 65} {
			s := lcg(uint64(rows*d + 1))
			x := NewDense(rows, d)
			s.fill(x.Data)
			w := make([]float64, rows)
			s.fill(w)
			for i := 0; i < rows; i += 7 {
				w[i] = 0
			}
			parallel.SetMaxWorkers(1)
			serial, serialNil := WeightedGram(nil, x, w), WeightedGram(nil, x, nil)
			if e := relDiff(serial, RefWeightedGram(nil, x, w)); e > 1e-12 {
				t.Errorf("rows=%d d=%d: rel diff %g", rows, d, e)
			}
			if e := relDiff(serialNil, RefWeightedGram(nil, x, nil)); e > 1e-12 {
				t.Errorf("rows=%d d=%d nil weights: rel diff %g", rows, d, e)
			}
			for workers := 2; workers <= 4; workers++ {
				parallel.SetMaxWorkers(workers)
				for _, c := range []struct {
					w    []float64
					want *Dense
				}{{w, serial}, {nil, serialNil}} {
					got := WeightedGram(nil, x, c.w)
					for k := range got.Data {
						if !sameBits(got.Data[k], c.want.Data[k]) {
							t.Fatalf("rows=%d d=%d unit=%v workers=%d: element %d = %x, 1 worker %x", rows, d, c.w == nil, workers, k,
								math.Float64bits(got.Data[k]), math.Float64bits(c.want.Data[k]))
						}
					}
				}
			}
		}
	}
}

// TestKernelsZeroAllocMulticore pins the tentpole guarantee at the mat
// layer: with the persistent worker pool and pooled kernel tasks, the
// parallel Mul/RowDots/WeightedGram paths allocate nothing per
// call once warm — not just in the serial regime.
func TestKernelsZeroAllocMulticore(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	s := lcg(99)
	a := NewDense(600, 32)
	b := NewDense(32, 32)
	s.fill(a.Data)
	s.fill(b.Data)
	dst := NewDense(600, 32)
	small := NewDense(32, 32)
	y := make([]float64, 600)
	w := make([]float64, 600)
	s.fill(w)
	warmAndPin := func(name string, fn func()) {
		fn() // warm the pools
		if allocs := testing.AllocsPerRun(30, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per warm call at 4 workers", name, allocs)
		}
	}
	warmAndPin("Mul(600x32,32x32)", func() { Mul(dst, a, b) })
	warmAndPin("Mul(32x32,32x32)", func() { Mul(small, b, b) })
	warmAndPin("MulTransA", func() { MulTransA(small, a, dst) })
	warmAndPin("MulTransB", func() { MulTransB(small, b, b) })
	warmAndPin("RowDots", func() { RowDots(y, a, dst) })
	warmAndPin("WeightedGram", func() { WeightedGram(small, a, w) })
}
