package hessian

import (
	"repro/internal/mat"
	"repro/internal/parallel"
)

// This file holds the fused multi-probe Lemma-2 kernels: one pool sweep
// serves a whole block of s vectors, and within the sweep each row tile is
// read once for all s probes. They exist for the block-CG RELAX path
// (krylov.SolveBlockInto), where per-probe kernels would decode a
// streamed pool s times per CG iteration and re-read every row block 2·s
// times.
//
// Vector blocks are held transposed, matching krylov.BlockOp: an s×(d·c)
// row-major matrix whose row j is the j-th vec-layout vector. Read as an
// (s·c)×d matrix, the block stacks every probe's c class rows, so one
// product of a row tile with it gives the c dot products of each row with
// every probe.
//
// Per probe the arithmetic is exactly that of the composition
// G = X·V_jᵀ (mat.MulTransB), Γ_ik = w_i (G_ik − α_i) h_ik with
// α_i = Σ_k G_ik h_ik, then Γᵀ·X (mat.MulTransA):
//
//   - the dots use the order mat.UseBlocked(m, c, d) picks for the row
//     block's per-probe product (mat.MulTransBInOrder), decided per block,
//     so ragged tail blocks keep their own order; they multiply with the
//     probe block packed once per sweep (mat.MulPackedRightInOrder),
//     which gives the same bits, in the blocked order and, where the dotu
//     tile pays for the probes' columns (mat.UseDotuTile), in the
//     unblocked one;
//   - each class row of the result adds Γ_ik x_i over the block's rows in
//     ascending order, skipping zero Γ (mat.AccumRows), unless
//     mat.UseBlocked(c, d, m) sends the block's Γᵀ·X to the packed path
//     (c ≥ 16): then each probe's Γ goes through mat.MulTransA itself;
//   - a multi-block pool folds each block's partial into dst with
//     dst += partial.
//
// So every column is bit-identical to the per-probe kernels, for any
// worker count: workers split probes, columns or rows, never the
// summation of one element.
//
// Parallel axis. The matvec splits probes across workers when there are
// at least as many probes as workers; each worker then runs dots, Γ and
// the accumulation tile by tile for its own probes while the tile is hot
// in cache. With fewer probes than workers (a single vector included), or
// when Γᵀ·X takes the packed path, the dots and Γ run row-parallel over
// the whole block first; the accumulation then splits each probe's d
// columns across workers (or runs MulTransA, parallel over class rows).
// The quadratic form splits rows; each row takes its probes in ascending
// order.

// sweepTile is the row tile of the fused sweeps: 64 rows of a d=64 block
// are 32 KiB, so the tile stays in L1 while every probe visits it.
const sweepTile = 64

// checkBlockShapes validates a transposed vector block against the pool.
func checkBlockShapes(p Pool, vs ...*mat.Dense) {
	ed := p.Ed()
	for _, v := range vs {
		if v.Cols != ed {
			panic("hessian: block vector has wrong length")
		}
		if v.Rows != vs[0].Rows {
			panic("hessian: block column count mismatch")
		}
	}
}

// sweepTask carries one fused sweep's operands in pooled storage, with
// its dispatch funcs bound once at pool-New time, so the hot kernels hand
// the worker pool a func without allocating a closure per call (the
// kernel task pattern of internal/mat).
type sweepTask struct {
	xb, u, v, dst *mat.Dense // current row block; probe blocks; matvec result
	h             *mat.Dense
	pu, pv        *mat.Packed // u and v packed once per sweep for the blocked dots; nil: not packed
	upk, vpk      mat.Packed  // their storage
	ga, pd        mat.Dense   // one probe's Γ and partial, for mat.MulTransA
	w, g, acc     []float64   // weights; dot/Γ scratch; per-probe block partials (nil: dst)
	qdst          []float64   // quadratic-form result
	scale         float64
	base, m       int // global index of the block's first row; block rows
	s, d, c       int
	blocked       bool // dot order of the block (mat.UseBlocked)
	gs, gj        int  // Γ scratch row stride; first probe held (probe j at column (j−gj)·c)
	slices, cols  int  // column slices per probe and their width
	rows          int  // rows per quadratic-form item

	probesFn, slicesFn, dotsFn, quadFn func(lo, hi int)
}

var sweepTasks = parallel.FreeList[sweepTask]{New: func() *sweepTask {
	t := &sweepTask{}
	t.probesFn = t.sweepProbes
	t.slicesFn = t.accumSlices
	t.dotsFn = t.dotsRows
	t.quadFn = t.quadRows
	return t
}}

func (t *sweepTask) release() {
	t.xb, t.u, t.v, t.dst, t.h = nil, nil, nil, nil, nil
	t.pu, t.pv = nil, nil
	t.w, t.g, t.acc, t.qdst = nil, nil, nil, nil
	t.ga.Data, t.pd.Data = nil, nil
	sweepTasks.Put(t)
}

// MatVecBlockWS computes dst_j = Σ_i w_i H_i v_j for all s vectors of the
// transposed block v (s×ẽd, row j = vector j) with the Lemma-2 fast
// matvec. Each vector v_j ∈ R^{dc} (vec layout, columns stacked) is read
// as a c×d row-major matrix V_j whose row k is block k, and
//
//	G = X V_jᵀ           (n×c, G_ik = x_iᵀ v_k)
//	α_i = Σ_k G_ik h_ik  (x_iᵀ V h_i)
//	Γ_ik = w_i (G_ik − α_i) h_ik
//	dst_j block k = Σ_i Γ_ik x_i = (Γᵀ X) row k
//
// The cost is two n×d×c products per vector — O(ndc) — versus O(n d²c²)
// for the dense operator (Table III). The whole block takes ONE sweep
// over the pool: every row block obtained from Pool.Block — for a
// streamed source, every decode — updates all s outputs before the next
// block is read. A nil w means unit weights; dst must not alias v.
// Scratch comes from ws; a warm workspace makes the call
// allocation-free. Column results are bit-for-bit equal to the per-probe
// MulTransB/Γ/MulTransA composition (see the file comment).
//
//firal:hotpath
func MatVecBlockWS(ws *mat.Workspace, p Pool, dst, v *mat.Dense, w []float64) {
	checkBlockShapes(p, dst, v)
	s := v.Rows
	n, d, c := p.N(), p.D(), p.C()
	if n == 0 {
		// An empty pool (e.g. a rank whose partition is empty when ranks
		// exceed pool rows) contributes a zero sum; without this the
		// single-block path would leave stale data in dst.
		dst.Zero()
		return
	}
	bs := p.BlockRows()
	t := sweepTasks.Get()
	t.v, t.dst, t.h, t.w = v, dst, p.Probs(), w
	t.s, t.d, t.c = s, d, c
	if bs < n {
		dst.Zero()
		t.acc = ws.Vec(s * d * c)
	}
	// The scratch holds a row tile of Γ for every probe (fused path), a
	// whole block's Γ for every probe (s < workers), or a whole block's Γ
	// for one probe (packed Γᵀ·X); the largest block sizes it.
	workers := parallel.Workers()
	rows := min(bs, n)
	gLen := sweepTile * s * c
	if s < workers {
		gLen = max(gLen, rows*s*c)
		t.slices = min((workers+s-1)/s, max(1, d/8))
		t.cols = (d + t.slices - 1) / t.slices
	}
	if mat.UseBlocked(c, d, rows) {
		gLen = max(gLen, rows*c)
	}
	t.g = ws.Vec(gLen)
	t.pv = t.packProbes(&t.vpk, v, rows)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		t.xb, t.base, t.m = p.Block(ws, lo, hi), lo, hi-lo
		t.blocked = mat.UseBlocked(t.m, c, d)
		t.gs, t.gj = s*c, 0
		switch {
		case mat.UseBlocked(c, d, t.m):
			// Γᵀ·X takes the packed path: one probe at a time, its Γ
			// through mat.MulTransA, as the per-probe composition does.
			t.gs = c
			for j := 0; j < s; j++ {
				t.gj = j
				parallel.ForChunkMin(t.m, sweepTile, t.dotsFn)
				t.accumPacked(j)
			}
		case s >= workers:
			parallel.ForChunkMin(s, 1, t.probesFn)
		default:
			parallel.ForChunkMin(t.m, sweepTile, t.dotsFn)
			parallel.ForChunkMin(s*t.slices, 1, t.slicesFn)
		}
		p.PutBlock(ws, t.xb)
	}
	ws.PutVec(t.g)
	ws.PutVec(t.acc)
	t.release()
}

// sweepProbes is the fused matvec body for probes [j0, j1): tile by tile,
// the dots and Γ of those probes, then their accumulation.
//
//firal:hotpath
func (t *sweepTask) sweepProbes(j0, j1 int) {
	t.clearPartials(j0, j1, 0, t.d)
	for r0 := 0; r0 < t.m; r0 += sweepTile {
		r1 := min(r0+sweepTile, t.m)
		t.dots(t.g, t.v, t.pv, r0, r1, j0, j1)
		t.gamma(t.g, r0, r1, j0, j1)
		for j := j0; j < j1; j++ {
			t.accumulate(t.g, j, 0, t.d, r0, r1)
		}
	}
	t.foldPartials(j0, j1, 0, t.d)
}

// dotsRows is the row-parallel dot and Γ phase over block rows
// [r0, r1) for the probes the scratch holds; the scratch holds Γ for
// every block row.
//
//firal:hotpath
func (t *sweepTask) dotsRows(r0, r1 int) {
	g := t.g[r0*t.gs:]
	j1 := t.gj + t.gs/t.c
	t.dots(g, t.v, t.pv, r0, r1, t.gj, j1)
	t.gamma(g, r0, r1, t.gj, j1)
}

// accumSlices is the unfused matvec's accumulation over items [lo, hi),
// item = probe·slices + column slice.
//
//firal:hotpath
func (t *sweepTask) accumSlices(lo, hi int) {
	for it := lo; it < hi; it++ {
		j := it / t.slices
		c0 := (it % t.slices) * t.cols
		c1 := min(c0+t.cols, t.d)
		if c0 >= c1 {
			continue
		}
		t.clearPartials(j, j+1, c0, c1)
		for r0 := 0; r0 < t.m; r0 += sweepTile {
			r1 := min(r0+sweepTile, t.m)
			t.accumulate(t.g[r0*t.gs:], j, c0, c1, r0, r1)
		}
		t.foldPartials(j, j+1, c0, c1)
	}
}

// accumPacked accumulates probe j of a block whose Γᵀ·X takes the packed
// path: its Γ (all block rows, from dotsRows) goes through mat.MulTransA,
// so the panel order is kept exactly. The operand headers live in the
// pooled record, so handing them to the worker pool does not allocate.
//
//firal:hotpath
func (t *sweepTask) accumPacked(j int) {
	t.ga = mat.Dense{Rows: t.m, Cols: t.c, Stride: t.c, Data: t.g}
	t.pd = mat.Dense{Rows: t.c, Cols: t.d, Stride: t.d, Data: t.partial(j)}
	mat.MulTransA(&t.pd, &t.ga, t.xb)
	t.foldPartials(j, j+1, 0, t.d)
}

// dots writes the c dot products of block rows [r0, r1) with probes
// [j0, j1) of vb into g: row r0+i, probe j at g[i·gs + (j−gj)·c:][:c].
// It multiplies with pb, vb packed for the sweep, when there is one and
// the block's order has a packed kernel that pays: the blocked order
// always, the unblocked (dotu) order where mat.UseDotuTile.
//
//firal:hotpath
func (t *sweepTask) dots(g []float64, vb *mat.Dense, pb *mat.Packed, r0, r1, j0, j1 int) {
	xs := t.xb.Stride
	xt := mat.Dense{Rows: r1 - r0, Cols: t.d, Stride: xs, Data: t.xb.Data[r0*xs:]}
	if pb != nil && (t.blocked || mat.UseDotuTile(j0*t.c, j1*t.c)) {
		gt := mat.Dense{Rows: r1 - r0, Cols: (j1 - j0) * t.c, Stride: t.gs, Data: g[(j0-t.gj)*t.c:]}
		mat.MulPackedRightInOrder(&gt, &xt, pb, j0*t.c, t.blocked)
		return
	}
	step := j1 - j0
	if vb.Stride != vb.Cols {
		step = 1 // probe rows are not contiguous: one product per probe
	}
	for j := j0; j < j1; j += step {
		gt := mat.Dense{Rows: r1 - r0, Cols: step * t.c, Stride: t.gs, Data: g[(j-t.gj)*t.c:]}
		vt := mat.Dense{Rows: step * t.c, Cols: t.d, Stride: t.d, Data: vb.Data[j*vb.Stride:]}
		mat.MulTransBInOrder(&gt, &xt, &vt, t.blocked)
	}
}

// gamma rewrites the dots of block rows [r0, r1) and probes [j0, j1) in
// g (laid out as in dots) in place: G_ik ← w_i (G_ik − α_i) h_ik with
// α_i = Σ_k G_ik h_ik summed in mat.Dot's order (from +0, ascending k),
// written out in straight-line code for c = 1 and 2.
//
//firal:hotpath
func (t *sweepTask) gamma(g []float64, r0, r1, j0, j1 int) {
	for i := r0; i < r1; i++ {
		hr := t.h.Row(t.base + i)
		wi := 1.0
		if t.w != nil {
			wi = t.w[t.base+i]
		}
		row := g[(i-r0)*t.gs+(j0-t.gj)*t.c : (i-r0)*t.gs+(j1-t.gj)*t.c]
		switch t.c {
		case 1:
			h0 := hr[0]
			for j, g0 := range row {
				alpha := 0 + g0*h0
				row[j] = wi * (g0 - alpha) * h0
			}
		case 2:
			h0, h1 := hr[0], hr[1]
			for j := 0; j+1 < len(row); j += 2 {
				gr := row[j : j+2 : j+2]
				g0, g1 := gr[0], gr[1]
				alpha := 0 + g0*h0 + g1*h1
				gr[0] = wi * (g0 - alpha) * h0
				gr[1] = wi * (g1 - alpha) * h1
			}
		default:
			for j := 0; j < len(row); j += t.c {
				gr := row[j : j+t.c]
				var alpha float64
				for k, hk := range hr {
					alpha += gr[k] * hk
				}
				for k, hk := range hr {
					gr[k] = wi * (gr[k] - alpha) * hk
				}
			}
		}
	}
}

// accumulate adds Σ_i Γ_ijk x_i[c0:c1] over block rows [r0, r1) (Γ laid
// out in g as in dots) to columns [c0, c1) of every class row of probe
// j's partial.
//
//firal:hotpath
func (t *sweepTask) accumulate(g []float64, j, c0, c1, r0, r1 int) {
	xs := t.xb.Stride
	xt := mat.Dense{Rows: r1 - r0, Cols: c1 - c0, Stride: xs, Data: t.xb.Data[r0*xs+c0:]}
	out := t.partial(j)
	for k := 0; k < t.c; k++ {
		mat.AccumRows(out[k*t.d+c0:k*t.d+c1], g[(j-t.gj)*t.c+k:], t.gs, &xt)
	}
}

// packProbes packs the probe block vb, read as an (s·c)×d matrix, into pk
// for the packed dots and returns it. It returns nil, and the dots read
// vb in place, when vb's probe rows are not contiguous, or when no block
// of up to rows rows takes the blocked order and the dotu tile does not
// pay on all s·c columns (mat.UseDotuTile), so on no narrower window
// either.
func (t *sweepTask) packProbes(pk *mat.Packed, vb *mat.Dense, rows int) *mat.Packed {
	if vb.Stride != vb.Cols || !mat.UseBlocked(rows, t.c, t.d) && !mat.UseDotuTile(0, vb.Rows*t.c) {
		return nil
	}
	pk.PackRight(&mat.Dense{Rows: vb.Rows * t.c, Cols: t.d, Stride: t.d, Data: vb.Data})
	return pk
}

// partial returns probe j's block partial: dst's row itself when the
// pool is one block, else its row of the accumulator.
func (t *sweepTask) partial(j int) []float64 {
	if t.acc == nil {
		return t.dst.Row(j)
	}
	ed := t.d * t.c
	return t.acc[j*ed : (j+1)*ed]
}

// clearPartials zeroes columns [c0, c1) of every class row of the
// partials of probes [j0, j1).
//
//firal:hotpath
func (t *sweepTask) clearPartials(j0, j1, c0, c1 int) {
	for j := j0; j < j1; j++ {
		out := t.partial(j)
		for k := 0; k < t.c; k++ {
			clear(out[k*t.d+c0 : k*t.d+c1])
		}
	}
}

// foldPartials adds the block partials of probes [j0, j1), columns
// [c0, c1) of each class row, into dst (a no-op for one-block pools,
// whose partial is dst).
//
//firal:hotpath
func (t *sweepTask) foldPartials(j0, j1, c0, c1 int) {
	if t.acc == nil {
		return
	}
	for j := j0; j < j1; j++ {
		src, dr := t.partial(j), t.dst.Row(j)
		for k := 0; k < t.c; k++ {
			for q := k*t.d + c0; q < k*t.d+c1; q++ {
				dr[q] += src[q]
			}
		}
	}
}

// QuadAccumBlockWS adds scale·(u_jᵀ H_i v_j), summed over all s columns
// of the transposed blocks u and v (s×ẽd, row j = vector j), to dst[i]
// for every pool point i — the whole Eq. 12 gradient accumulation in ONE
// pool sweep, each row tile read once for all probes. For each point the
// per-probe contributions land in ascending j order, exactly as s
// sequential per-probe sweeps would order them, so the result is
// bit-for-bit identical to them.
//
//firal:hotpath
func QuadAccumBlockWS(ws *mat.Workspace, p Pool, dst []float64, u, v *mat.Dense, scale float64) {
	checkBlockShapes(p, u, v)
	s := u.Rows
	n, d, c := p.N(), p.D(), p.C()
	if len(dst) != n {
		panic("hessian: QuadAccum dst length mismatch")
	}
	if n == 0 {
		return
	}
	bs := p.BlockRows()
	// One item per worker, each with private tile scratch for both dot
	// sets; an item is a contiguous run of block rows.
	items := min(parallel.Workers(), (min(bs, n)+sweepTile-1)/sweepTile)
	t := sweepTasks.Get()
	t.u, t.v, t.h, t.qdst, t.scale = u, v, p.Probs(), dst, scale
	t.s, t.d, t.c = s, d, c
	t.gs, t.gj = s*c, 0
	t.g = ws.Vec(items * 2 * sweepTile * s * c)
	t.pu = t.packProbes(&t.upk, u, min(bs, n))
	t.pv = t.packProbes(&t.vpk, v, min(bs, n))
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		t.xb, t.base, t.m = p.Block(ws, lo, hi), lo, hi-lo
		t.blocked = mat.UseBlocked(t.m, c, d)
		nit := min(items, (t.m+sweepTile-1)/sweepTile)
		t.rows = (t.m + nit - 1) / nit
		parallel.ForChunkMin(nit, 1, t.quadFn)
		p.PutBlock(ws, t.xb)
	}
	ws.PutVec(t.g)
	t.release()
}

// quadRows runs QuadAccum items [lo, hi): item it covers block rows
// [it·rows, (it+1)·rows) and uses scratch region it.
//
//firal:hotpath
func (t *sweepTask) quadRows(lo, hi int) {
	sc := t.s * t.c
	for it := lo; it < hi; it++ {
		gu := t.g[it*2*sweepTile*sc:]
		gv := gu[sweepTile*sc:]
		for r0 := it * t.rows; r0 < min((it+1)*t.rows, t.m); r0 += sweepTile {
			r1 := min(r0+sweepTile, (it+1)*t.rows, t.m)
			t.dots(gu, t.u, t.pu, r0, r1, 0, t.s)
			t.dots(gv, t.v, t.pv, r0, r1, 0, t.s)
			for i := r0; i < r1; i++ {
				hr := t.h.Row(t.base + i)
				q0 := (i - r0) * sc
				hu, hv := gu[q0:q0+sc], gv[q0:q0+sc]
				qi := t.qdst[t.base+i]
				for j := 0; j < sc; j += t.c {
					var alpha, q float64 // alpha in mat.Dot's order
					for k, hk := range hr {
						alpha += hv[j+k] * hk
					}
					for k, hk := range hr {
						q += (hv[j+k] - alpha) * hk * hu[j+k]
					}
					qi += t.scale * q
				}
				t.qdst[t.base+i] = qi
			}
		}
	}
}

// BlockDiagSumInto computes the c diagonal d×d blocks of Σ_i w_i H_i
// (Eq. 14): block k = Σ_i w_i h_ik(1−h_ik) x_i x_iᵀ. A nil w means unit
// weights. It writes into blocks (allocated when nil) with scratch drawn
// from ws, so callers that rebuild the blocks every iteration (the RELAX
// preconditioner, the distributed allreduce) reuse one set of buffers
// round to round. Row blocks are visited outermost, so a streamed source
// is read once per call, with all c class Grams accumulated per visit.
//
//firal:hotpath
func BlockDiagSumInto(ws *mat.Workspace, p Pool, blocks []*mat.Dense, w []float64) []*mat.Dense {
	n, d, c := p.N(), p.D(), p.C()
	if blocks == nil {
		blocks = make([]*mat.Dense, c)
		for k := range blocks {
			blocks[k] = mat.NewDense(d, d)
		}
	} else if len(blocks) != c {
		panic("hessian: BlockDiagSumInto block count mismatch")
	}
	if n == 0 {
		// Empty pool partition: the sum is zero, and reused blocks (the
		// RELAX sigCache) must not keep a previous iteration's values.
		for k := range blocks {
			blocks[k].Zero()
		}
		return blocks
	}
	h := p.Probs()
	bs := p.BlockRows()
	single := bs >= n
	var acc *mat.Dense
	if !single {
		for k := range blocks {
			blocks[k].Zero()
		}
		acc = ws.Matrix(d, d)
	}
	u := ws.Vec(min(bs, n))
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		m := hi - lo
		xb := p.Block(ws, lo, hi)
		for k := 0; k < c; k++ {
			for i := 0; i < m; i++ {
				wi := 1.0
				if w != nil {
					wi = w[lo+i]
				}
				hv := h.At(lo+i, k)
				u[i] = wi * hv * (1 - hv)
			}
			if single {
				mat.WeightedGram(blocks[k], xb, u)
			} else {
				mat.WeightedGram(acc, xb, u[:m])
				blocks[k].AddScaled(1, acc)
			}
		}
		p.PutBlock(ws, xb)
	}
	ws.PutVec(u)
	if acc != nil {
		ws.PutMatrix(acc)
	}
	return blocks
}
