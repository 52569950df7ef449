package hessian

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rnd"
)

// blockVectors draws a transposed s×ẽd vector block and its ẽd×s
// column-major twin with identical values.
func blockVectors(ed, s int, seed int64) (vt *mat.Dense, cols [][]float64) {
	vt = mat.NewDense(s, ed)
	rnd.New(seed).Normal(vt.Data, 0, 1)
	cols = make([][]float64, s)
	for j := range cols {
		cols[j] = append([]float64(nil), vt.Row(j)...)
	}
	return vt, cols
}

// streamPool rebuilds a resident Set as a block-streaming pool with the
// given block size.
func streamPool(s *Set, blockRows int) *Stream {
	return NewStream(dataset.NewMatrixSource(s.X), s.H, blockRows)
}

// oracleMatVecBlock is the per-probe composition the fused sweep
// replaced, kept as its oracle: per row block and per probe, G = X·V_jᵀ
// (mat.MulTransB), Γ in place, then Γᵀ·X (mat.MulTransA), with a
// multi-block pool folding each block's partial into dst by
// dst += 1·partial.
func oracleMatVecBlock(p Pool, dst, v *mat.Dense, w []float64) {
	n, d, c := p.N(), p.D(), p.C()
	if n == 0 {
		dst.Zero()
		return
	}
	h := p.Probs()
	bs := p.BlockRows()
	single := bs >= n
	if !single {
		dst.Zero()
	}
	acc := mat.NewDense(c, d)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		xb := p.Block(nil, lo, hi)
		g := mat.NewDense(hi-lo, c)
		for j := 0; j < v.Rows; j++ {
			vt := &mat.Dense{Rows: c, Cols: d, Stride: d, Data: v.Row(j)}
			dt := &mat.Dense{Rows: c, Cols: d, Stride: d, Data: dst.Row(j)}
			mat.MulTransB(g, xb, vt) // m×c: x_iᵀ v_k
			for i := 0; i < g.Rows; i++ {
				gr := g.Row(i)
				hr := h.Row(lo + i)
				alpha := mat.Dot(gr, hr)
				wi := 1.0
				if w != nil {
					wi = w[lo+i]
				}
				for k := range gr {
					gr[k] = wi * (gr[k] - alpha) * hr[k]
				}
			}
			if single {
				mat.MulTransA(dt, g, xb) // c×d: row k = Σ_i Γ_ik x_iᵀ
			} else {
				mat.MulTransA(acc, g, xb)
				dt.AddScaled(1, acc)
			}
		}
		p.PutBlock(nil, xb)
	}
}

// oracleQuadAccumBlock is the per-probe gradient accumulation the fused
// sweep replaced: per row block and per probe, both dot sets by
// mat.MulTransB, then dst[i] += scale·Σ_k (G^v_ik − α_i) h_ik G^u_ik.
func oracleQuadAccumBlock(p Pool, dst []float64, u, v *mat.Dense, scale float64) {
	n, d, c := p.N(), p.D(), p.C()
	h := p.Probs()
	bs := p.BlockRows()
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		xb := p.Block(nil, lo, hi)
		gu := mat.NewDense(hi-lo, c)
		gv := mat.NewDense(hi-lo, c)
		for j := 0; j < u.Rows; j++ {
			mat.MulTransB(gu, xb, &mat.Dense{Rows: c, Cols: d, Stride: d, Data: u.Row(j)})
			mat.MulTransB(gv, xb, &mat.Dense{Rows: c, Cols: d, Stride: d, Data: v.Row(j)})
			for i := 0; i < hi-lo; i++ {
				hu, hv, hr := gu.Row(i), gv.Row(i), h.Row(lo+i)
				alpha := mat.Dot(hv, hr)
				var q float64
				for k := range hr {
					q += (hv[k] - alpha) * hr[k] * hu[k]
				}
				dst[lo+i] += scale * q
			}
		}
		p.PutBlock(nil, xb)
	}
}

// sweepSet draws a pool with random features and random interior reduced
// probabilities, so every Γ entry carries distinct low bits.
func sweepSet(n, d, c int, seed int64) *Set {
	rng := rnd.New(seed)
	x := mat.NewDense(n, d)
	rng.Normal(x.Data, 0, 1)
	h := mat.NewDense(n, c)
	rng.Normal(h.Data, 0, 1)
	for i := range h.Data {
		h.Data[i] = 0.05 + math.Abs(h.Data[i])
	}
	for i := 0; i < n; i++ {
		row := h.Row(i)
		sum := mat.Sum(row) * 1.3 // reduced classes sum below 1
		for k := range row {
			row[k] /= sum
		}
	}
	return NewSet(x, h)
}

// sweepPool is one pool of the fused-kernel oracle grid.
type sweepPool struct {
	name string
	p    Pool
	w    []float64
}

// sweepPools builds, for one (c, d), resident and streamed pools whose
// 100-row blocks leave a 51- or 52-row tail: at c=10, d=64 the tail sits
// just below and just at the blocked-GEMM threshold (mat.UseBlocked),
// so both dot orders occur within one sweep. For c ≥ 16 a 600-row pool
// is added: its one resident block spans three GEMM k-panels, so a packed
// Γᵀ·X sums in a different order from a row-by-row one. Each pool comes
// with unit (nil) and non-unit weights, some of them zero.
func sweepPools(c, d int) []sweepPool {
	var out []sweepPool
	ns := []int{251, 252}
	if c >= 16 {
		ns = append(ns, 600)
	}
	for _, n := range ns {
		set := sweepSet(n, d, c, int64(n*1000+d*10+c))
		w := make([]float64, n)
		for i := range w {
			if i%7 != 3 {
				w[i] = 0.2 + float64(i%11)/11
			}
		}
		for _, pc := range []struct {
			name string
			p    Pool
		}{{"resident", set}, {"stream_bs100", streamPool(set, 100)}} {
			name := fmt.Sprintf("%s_n%d", pc.name, n)
			out = append(out, sweepPool{name + "_unitw", pc.p, nil}, sweepPool{name + "_w", pc.p, w})
		}
	}
	return out
}

// TestThresholdTailsCoverBothOrders guards the oracle grid itself: the
// 51- and 52-row tails at c=10, d=64 must straddle the blocked-GEMM
// threshold, or the grid would stop testing one dot order at the tail.
func TestThresholdTailsCoverBothOrders(t *testing.T) {
	if mat.UseBlocked(51, 10, 64) || !mat.UseBlocked(52, 10, 64) || !mat.UseBlocked(100, 10, 64) {
		t.Fatal("the 51/52-row tails no longer straddle mat.UseBlocked at c=10, d=64; move them")
	}
	// At c=20, d=13 the 100-row blocks keep Γᵀ·X on the reference path
	// while the one-block resident pools send it to the packed path.
	if mat.UseBlocked(20, 13, 100) || !mat.UseBlocked(20, 13, 251) {
		t.Fatal("c=20, d=13 no longer straddles mat.UseBlocked for Γᵀ·X; move it")
	}
}

// sweepShapes is the (c, d) grid of the oracle tests: c ∈ {1, 2, 3, 7,
// 10} against d ∈ {13, 64, 300} (300 spans two GEMM k-panels), plus
// c = 20, where Γᵀ·X itself takes the packed path on the larger blocks.
// c = 3 and c = 7 (the largest c whose dots are never blocked) leave the
// probe block's last lane panel of eight ragged for most probe counts.
var sweepShapes = [][2]int{
	{1, 13}, {1, 64}, {1, 300},
	{2, 13}, {2, 64}, {2, 300},
	{3, 13}, {3, 64}, {3, 300},
	{7, 13}, {7, 64}, {7, 300},
	{10, 13}, {10, 64}, {10, 300},
	{20, 13}, {20, 64},
}

// TestMatVecBlockWSMatchesPerColumn pins the fused multi-probe matvec to
// the per-probe MulTransB/Γ/MulTransA composition bit for bit across the
// sweepShapes grid, s ∈ {1, 3, 5, 10, 13}, 1 to 4 workers, unit and
// non-unit weights, and resident and streamed pools with tails on both
// sides of the blocked threshold. Every multi-worker result must also
// equal the one-worker result bit for bit, whatever windows the workers
// split the probes into.
func TestMatVecBlockWSMatchesPerColumn(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	ws := mat.NewWorkspace()
	for _, sh := range sweepShapes {
		c, d := sh[0], sh[1]
		for _, pc := range sweepPools(c, d) {
			for _, s := range []int{1, 3, 5, 10, 13} {
				vt, _ := blockVectors(d*c, s, int64(7*s+d))
				want := mat.NewDense(s, d*c)
				oracleMatVecBlock(pc.p, want, vt, pc.w)
				one := mat.NewDense(s, d*c)
				got := mat.NewDense(s, d*c)
				for _, nw := range []int{1, 2, 3, 4} {
					parallel.SetMaxWorkers(nw)
					mat.Fill(got.Data, 7) // stale data must be overwritten
					MatVecBlockWS(ws, pc.p, got, vt, pc.w)
					if nw == 1 {
						copy(one.Data, got.Data)
					}
					for i, v := range got.Data {
						if math.Float64bits(v) != math.Float64bits(want.Data[i]) || math.Float64bits(v) != math.Float64bits(one.Data[i]) {
							t.Fatalf("c=%d d=%d %s s=%d workers=%d: element (%d,%d) = %x, oracle %x, one worker %x",
								c, d, pc.name, s, nw, i/(d*c), i%(d*c),
								math.Float64bits(v), math.Float64bits(want.Data[i]), math.Float64bits(one.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestBlockWSMidPanelSplit runs both fused sweeps with s ∈ {5, 10, 13}
// probes on 2, 3 and 4 workers at every c of sweepShapes (d = 64), against
// their oracles and against one worker, bit for bit. The probe windows
// start inside a lane panel of a probe block packed whole — c = 1, s = 10
// at 2 workers gives [0, 5) and [5, 10); s = 13 at 3 workers gives
// [0, 5), [5, 10) and [10, 13) — and the last one ends in a ragged panel,
// so each window's own packing must give the bits of the whole-block
// product. At c = 1 the windows take the dotu tile where it pays
// (mat.UseDotuTile) and read the probes in place elsewhere.
func TestBlockWSMidPanelSplit(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	ws := mat.NewWorkspace()
	const d = 64
	cs := map[int]bool{}
	for _, sh := range sweepShapes {
		c := sh[0]
		if cs[c] {
			continue
		}
		cs[c] = true
		for _, pc := range sweepPools(c, d) {
			for _, s := range []int{5, 10, 13} {
				vt, _ := blockVectors(d*c, s, int64(c+s))
				ut, _ := blockVectors(d*c, s, int64(10+c+s))
				want := mat.NewDense(s, d*c)
				oracleMatVecBlock(pc.p, want, vt, pc.w)
				wantQ := make([]float64, pc.p.N())
				oracleQuadAccumBlock(pc.p, wantQ, ut, vt, 0.5)
				parallel.SetMaxWorkers(1)
				one := mat.NewDense(s, d*c)
				MatVecBlockWS(ws, pc.p, one, vt, pc.w)
				oneQ := make([]float64, pc.p.N())
				QuadAccumBlockWS(ws, pc.p, oneQ, ut, vt, 0.5)
				for _, nw := range []int{2, 3, 4} {
					parallel.SetMaxWorkers(nw)
					got := mat.NewDense(s, d*c)
					MatVecBlockWS(ws, pc.p, got, vt, pc.w)
					for i, v := range got.Data {
						if math.Float64bits(v) != math.Float64bits(want.Data[i]) || math.Float64bits(v) != math.Float64bits(one.Data[i]) {
							t.Fatalf("c=%d %s s=%d workers=%d: matvec element (%d,%d) = %x, oracle %x, one worker %x",
								c, pc.name, s, nw, i/(d*c), i%(d*c),
								math.Float64bits(v), math.Float64bits(want.Data[i]), math.Float64bits(one.Data[i]))
						}
					}
					gotQ := make([]float64, pc.p.N())
					QuadAccumBlockWS(ws, pc.p, gotQ, ut, vt, 0.5)
					for i := range gotQ {
						if math.Float64bits(gotQ[i]) != math.Float64bits(wantQ[i]) || math.Float64bits(gotQ[i]) != math.Float64bits(oneQ[i]) {
							t.Fatalf("c=%d %s s=%d workers=%d: quad g[%d] = %x, oracle %x, one worker %x", c, pc.name, s, nw, i,
								math.Float64bits(gotQ[i]), math.Float64bits(wantQ[i]), math.Float64bits(oneQ[i]))
						}
					}
				}
			}
		}
	}
}

// TestMatVecBlockWSStridedVectors covers probe blocks whose rows are not
// contiguous (a wider stride): the fused kernel takes one product per
// probe there and must still match the oracle.
func TestMatVecBlockWSStridedVectors(t *testing.T) {
	set := sweepSet(252, 64, 10, 5)
	p := streamPool(set, 100)
	const s = 3
	ed := set.Ed()
	vt := &mat.Dense{Rows: s, Cols: ed, Stride: ed + 5, Data: make([]float64, s*(ed+5))}
	rnd.New(6).Normal(vt.Data, 0, 1)
	want := mat.NewDense(s, ed)
	oracleMatVecBlock(p, want, vt, nil)
	got := mat.NewDense(s, ed)
	MatVecBlockWS(mat.NewWorkspace(), p, got, vt, nil)
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d = %g, oracle %g", i, v, want.Data[i])
		}
	}
	g := make([]float64, set.N())
	wantG := make([]float64, set.N())
	QuadAccumBlockWS(mat.NewWorkspace(), p, g, vt, vt, 0.5)
	oracleQuadAccumBlock(p, wantG, vt, vt, 0.5)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("quad g[%d] = %g, oracle %g", i, g[i], wantG[i])
		}
	}
}

// TestQuadAccumBlockWSMatchesPerColumn pins the fused gradient
// accumulation to the per-probe composition bit for bit over the same
// grid as the matvec.
func TestQuadAccumBlockWSMatchesPerColumn(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	ws := mat.NewWorkspace()
	for _, sh := range sweepShapes {
		c, d := sh[0], sh[1]
		for _, pc := range sweepPools(c, d) {
			if pc.w != nil {
				continue // the quadratic form takes no weights
			}
			n := pc.p.N()
			for _, s := range []int{1, 3, 10} {
				scale := -1 / float64(s)
				ut, _ := blockVectors(d*c, s, int64(31*s+d))
				vt, _ := blockVectors(d*c, s, int64(37*s+d))
				want := make([]float64, n)
				rnd.New(3).Normal(want, 0, 1) // accumulates onto existing values
				start := append([]float64(nil), want...)
				oracleQuadAccumBlock(pc.p, want, ut, vt, scale)
				for _, nw := range []int{1, 2, 4} {
					parallel.SetMaxWorkers(nw)
					got := append([]float64(nil), start...)
					QuadAccumBlockWS(ws, pc.p, got, ut, vt, scale)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("c=%d d=%d %s s=%d workers=%d: g[%d] = %x, oracle %x",
								c, d, pc.name, s, nw, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestEmptyPoolKernelsWriteZeros pins the empty-partition contract: a
// pool with zero rows (a rank whose slice is empty when ranks exceed
// pool rows) contributes a ZERO sum — the kernels must overwrite stale
// destination data, not skip the write. Regression test: the blocked
// engines' single-block fast path used to leave dst/blocks untouched at
// n=0, so reused buffers (the CG scratch, the RELAX sigCache) leaked a
// previous iteration's values into the distributed allreduce.
func TestEmptyPoolKernelsWriteZeros(t *testing.T) {
	full := allocSet(10, 6, 3)
	empty := NewSet(mat.NewDense(0, 6), mat.NewDense(0, 3))
	emptyStream := NewStream(dataset.Subrange(dataset.NewMatrixSource(full.X), 3, 3), mat.NewDense(0, 3), 4)
	ws := mat.NewWorkspace()
	const s = 2
	for _, pc := range []struct {
		name string
		p    Pool
	}{{"set", empty}, {"stream", emptyStream}} {
		dst := make([]float64, pc.p.Ed())
		mat.Fill(dst, 7) // stale data from a previous iteration
		matVec(ws, pc.p, dst, make([]float64, pc.p.Ed()), nil)
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("%s: one-vector MatVecBlockWS left stale dst[%d] = %g on an empty pool", pc.name, i, v)
			}
		}
		bdst := mat.NewDense(s, pc.p.Ed())
		mat.Fill(bdst.Data, 7)
		MatVecBlockWS(ws, pc.p, bdst, mat.NewDense(s, pc.p.Ed()), nil)
		for i, v := range bdst.Data {
			if v != 0 {
				t.Fatalf("%s: MatVecBlockWS left stale dst[%d] = %g on an empty pool", pc.name, i, v)
			}
		}
		blocks := BlockDiagSumInto(ws, pc.p, nil, nil)
		for k := range blocks {
			mat.Fill(blocks[k].Data, 7)
		}
		blocks = BlockDiagSumInto(ws, pc.p, blocks, nil) // reuse, like the RELAX sigCache
		for k := range blocks {
			for i, v := range blocks[k].Data {
				if v != 0 {
					t.Fatalf("%s: BlockDiagSumInto left stale block %d[%d] = %g on an empty pool", pc.name, k, i, v)
				}
			}
		}
		// QuadAccum destinations are length n = 0: nothing to check beyond
		// not panicking.
		quadAccum(ws, pc.p, nil, make([]float64, pc.p.Ed()), make([]float64, pc.p.Ed()), 1)
	}
}

// TestBlockKernelsZeroAllocWarm pins the steady state of the fused
// kernels: with a warm workspace, one block sweep over resident and
// streamed pools allocates nothing — at the small shape and at c=10,
// s=10 (the resident benchmark's Fisher blocks and probe count).
func TestBlockKernelsZeroAllocWarm(t *testing.T) {
	skipUnderRace(t)
	for _, sh := range []struct{ n, d, c, s int }{{300, 24, 7, 5}, {300, 64, 10, 10}} {
		set := allocSet(sh.n, sh.d, sh.c)
		vt, _ := blockVectors(set.Ed(), sh.s, 41)
		ut, _ := blockVectors(set.Ed(), sh.s, 42)
		dst := mat.NewDense(sh.s, set.Ed())
		g := make([]float64, set.N())
		w := make([]float64, set.N())
		mat.Fill(w, 0.5)
		for _, pc := range []struct {
			name string
			p    Pool
		}{{"resident", set}, {"streamed", streamPool(set, 64)}} {
			ws := mat.NewWorkspace()
			warmAndPin := func(name string, fn func()) {
				fn()
				if allocs := testing.AllocsPerRun(30, fn); allocs != 0 {
					t.Errorf("c=%d s=%d %s/%s allocates %.1f objects per sweep with a warm workspace",
						sh.c, sh.s, pc.name, name, allocs)
				}
			}
			warmAndPin("MatVecBlockWS", func() { MatVecBlockWS(ws, pc.p, dst, vt, w) })
			warmAndPin("QuadAccumBlockWS", func() { QuadAccumBlockWS(ws, pc.p, g, ut, vt, -0.2) })
		}
	}
}

// TestBlockKernelsZeroAllocMulticore re-pins the fused kernels with two,
// three and four workers engaged, on the probe-parallel path (s ≥
// workers), the row-parallel dot path (s < workers, including s=1), at
// c ∈ {1, 2, 10} with s=10 (the stream, service and resident shapes,
// whose probe windows pack their own probes and own their Γ regions), and
// at c=20, where Γᵀ·X takes the packed MulTransA path: the pooled task
// records, the per-window packs and the workspace scratch keep the
// parallel fan-out allocation-free.
func TestBlockKernelsZeroAllocMulticore(t *testing.T) {
	skipUnderRace(t)
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(0))
	for _, nw := range []int{2, 3, 4} {
		parallel.SetMaxWorkers(nw)
		for _, sh := range []struct{ c, s int }{{9, 4}, {9, 1}, {1, 10}, {2, 10}, {10, 10}, {20, 4}} {
			set := allocSet(2000, 64, sh.c)
			vt, _ := blockVectors(set.Ed(), sh.s, 51)
			ut, _ := blockVectors(set.Ed(), sh.s, 52)
			dst := mat.NewDense(sh.s, set.Ed())
			g := make([]float64, set.N())
			w := make([]float64, set.N())
			mat.Fill(w, 0.5)
			ws := mat.NewWorkspace()
			warmAndPin := func(name string, fn func()) {
				fn()
				if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
					t.Errorf("c=%d s=%d %s allocates %.1f objects per sweep at %d workers",
						sh.c, sh.s, name, allocs, nw)
				}
			}
			st := streamPool(set, 512)
			warmAndPin("MatVecBlockWS", func() { MatVecBlockWS(ws, set, dst, vt, w) })
			warmAndPin("QuadAccumBlockWS", func() { QuadAccumBlockWS(ws, set, g, ut, vt, -0.25) })
			warmAndPin("MatVecBlockWS/stream", func() { MatVecBlockWS(ws, st, dst, vt, w) })
			warmAndPin("QuadAccumBlockWS/stream", func() { QuadAccumBlockWS(ws, st, g, ut, vt, -0.25) })
		}
	}
}
