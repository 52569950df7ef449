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
//   - each block's partial starts from +0 and folds into the zeroed dst
//     with dst += partial, at every block count: a partial is never −0,
//     and +0 + x is x bit for bit, so one block gives the bits of
//     writing its sums to dst directly.
//
// Parallel axis. Every sweep runs on parallel.ForBlocks over the pool's
// row blocks (Pool.BlockRows, dataset.BlockRowsFor the pool's rows) with
// parallel.BlockLanes lanes: each lane takes whole blocks in ascending
// order, computes a block's partial alone in the lane's own scratch and
// workspace with the one-worker kernel (dots, Γ and the accumulation of
// all s probes tile by tile while the tile is hot in cache; the Gram's
// lower triangle, mirrored once per block), gives the block back, and
// folds the partial into dst in block order. On more than one lane over
// a streamed pool, a lane decodes its block itself, window by window
// (LaneRows), and runs the kernel on each window while it is in L2; the
// windows are whole row tiles and four-point Gram groups, so the block's
// partial is the same. Only the packed Γᵀ·X path (c ≥ 16), which needs a
// whole block's Γ, decodes the block in one window. A block's partial
// depends only on the block, so every column is bit-identical to the
// per-probe kernels at any worker count.

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

// checkCompact panics unless every probe block is compact: the dots read
// the probes as one (s·c)×d matrix.
func checkCompact(vs ...*mat.Dense) {
	for _, v := range vs {
		if v.Stride != v.Cols {
			panic("hessian: probe block needs compact storage")
		}
	}
}

// sweep kinds: the kernel a sweepTask's Compute runs on each block.
const (
	sweepMatVec = iota
	sweepQuad
	sweepGram
)

// sweepTask carries one fused sweep's operands in pooled storage. It is
// the parallel.BlockSweep of the sweep; its folding field is the same
// sweep as a parallel.BlockFolder, for the kernels whose blocks fold
// partials. Everything a block's computation writes lives in a lane.
type sweepTask struct {
	p         Pool
	kind      int
	n, bs     int          // pool rows; block rows
	nl        int          // lanes of the sweep (parallel.BlockLanes)
	lanes     []*sweepLane // lane scratch, grown when the worker count grows
	folding   foldingSweep // the sweep, folding its partials in block order
	u, v, dst *mat.Dense   // probe blocks; matvec result
	h         *mat.Dense   // probabilities
	pu, pv    *mat.Packed  // u and v packed once per sweep for the packed dots; nil: not packed
	upk, vpk  mat.Packed   // their storage
	w         []float64    // weights
	qdst      []float64    // quadratic-form result
	blocks    []*mat.Dense // Gram result, one d×d block per class
	scale     float64      // quadratic-form scale
	s, d, c   int          // probes, features, classes
}

// sweepLane is one lane's share of a sweep: the rows of the block it
// holds, the workspace they come from, and the scratch its computation
// writes. Lane 0 draws from the caller's workspace, the others from
// their own.
type sweepLane struct {
	*sweepTask
	ws, own *mat.Workspace
	rows    LaneRows
	xb      *mat.Dense   // the rows being computed: the block, or a decode window of it
	base    int          // global index of xb's first row
	m       int          // block rows, which fix the dot order and the Γᵀ·X path
	blocked bool         // dot order of the block (mat.UseBlocked)
	g, acc  []float64    // dot/Γ scratch; per-probe block partials
	gw      []float64    // Gram weights of one class
	grams   []*mat.Dense // Gram partials, one per class
	ga, pd  mat.Dense    // one probe's Γ and partial, for mat.MulTransA
}

// foldingSweep is a sweepTask whose blocks fold into the result.
type foldingSweep struct{ *sweepTask }

var sweepTasks = parallel.FreeList[sweepTask]{New: func() *sweepTask {
	t := &sweepTask{}
	t.folding.sweepTask = t
	return t
}}

// getSweep returns a pooled task for a sweep of kind over pool p, with
// its lanes: parallel.BlockLanes of the pool's blocks, lane 0 drawing
// from ws.
func getSweep(kind int, ws *mat.Workspace, p Pool) *sweepTask {
	t := sweepTasks.Get()
	t.p, t.kind = p, kind
	t.n, t.bs, t.d, t.c = p.N(), p.BlockRows(), p.D(), p.C()
	t.h = p.Probs()
	t.nl = parallel.BlockLanes((t.n + t.bs - 1) / t.bs)
	for len(t.lanes) < t.nl {
		t.lanes = append(t.lanes, &sweepLane{sweepTask: t, own: mat.NewWorkspace()})
	}
	t.lanes[0].ws = ws
	for _, l := range t.lanes[1:t.nl] {
		l.ws = l.own
	}
	return t
}

// sweep runs the kernel over the pool's blocks; whole decodes every
// block in one window (LaneRows).
func (t *sweepTask) sweep(whole bool) {
	for _, l := range t.lanes[:t.nl] {
		l.rows.Start(t.p, l.ws, t.nl, whole)
	}
	var s parallel.BlockSweep = t
	if t.kind != sweepQuad {
		s = &t.folding
	}
	parallel.ForBlocks((t.n+t.bs-1)/t.bs, t.nl, s)
	for _, l := range t.lanes[:t.nl] {
		l.rows.Stop()
	}
}

// release drops the sweep's operands and returns the task to its pool.
func (t *sweepTask) release() {
	t.p, t.u, t.v, t.dst, t.h = nil, nil, nil, nil, nil
	t.pu, t.pv = nil, nil
	t.w, t.qdst, t.blocks = nil, nil, nil
	for _, l := range t.lanes {
		l.ws, l.xb = nil, nil
		l.ga.Data, l.pd.Data = nil, nil
	}
	sweepTasks.Put(t)
}

// Fetch takes block k for lane (LaneRows.Fetch).
//
//firal:hotpath
func (t *sweepTask) Fetch(lane, k int) {
	l := t.lanes[lane]
	lo := k * t.bs
	hi := min(lo+t.bs, t.n)
	l.rows.Fetch(lo, hi)
	l.m = hi - lo
	l.blocked = mat.UseBlocked(l.m, t.c, t.d)
}

// Compute runs the sweep's kernel on lane's block, rows by rows as
// LaneRows serves them, and gives the block back.
//
//firal:hotpath
func (t *sweepTask) Compute(lane, k int) {
	l := t.lanes[lane]
	switch t.kind {
	case sweepMatVec:
		clear(l.acc)
	case sweepGram:
		for _, g := range l.grams[:t.c] {
			g.Zero()
		}
	}
	for x, base := l.rows.Next(); x != nil; x, base = l.rows.Next() {
		l.xb, l.base = x, base
		switch t.kind {
		case sweepMatVec:
			l.matVec()
		case sweepQuad:
			l.quad()
		case sweepGram:
			l.gram()
		}
	}
	l.xb = nil
	if t.kind == sweepGram {
		for _, g := range l.grams[:t.c] {
			mat.MirrorLower(g)
		}
	}
}

// Fold adds lane's block partials to the result.
//
//firal:hotpath
func (f *foldingSweep) Fold(lane, k int) {
	l := f.lanes[lane]
	if f.kind == sweepMatVec {
		l.foldPartials()
		return
	}
	for cls, b := range f.blocks {
		b.AddScaled(1, l.grams[cls])
	}
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
// streamed source, every decode — updates all s outputs, and is read
// once. A nil w means unit weights; v must be compact and dst must not
// alias it. Scratch comes from ws and, on a multi-lane sweep, from the
// lanes' own workspaces; warm ones make the call allocation-free. Column
// results are bit-for-bit equal to the per-probe MulTransB/Γ/MulTransA
// composition (see the file comment).
//
//firal:hotpath
func MatVecBlockWS(ws *mat.Workspace, p Pool, dst, v *mat.Dense, w []float64) {
	checkBlockShapes(p, dst, v)
	checkCompact(v)
	t := getSweep(sweepMatVec, ws, p)
	t.v, t.dst, t.w, t.s = v, dst, w, v.Rows
	s, d, c := t.s, t.d, t.c
	dst.Zero()
	// The scratch holds a Γ tile of every probe, or a whole block's Γ of
	// one probe (packed Γᵀ·X, which then reads whole blocks); the largest
	// block sizes it.
	rows := min(t.bs, t.n)
	packed := mat.UseBlocked(c, d, rows)
	gLen := sweepTile * s * c
	if packed {
		gLen = max(gLen, rows*c)
	}
	t.pv = t.packProbes(&t.vpk, v, rows)
	for _, l := range t.lanes[:t.nl] {
		l.acc = l.ws.Vec(s * d * c)
		l.g = l.ws.Vec(gLen)
	}
	t.sweep(packed)
	for _, l := range t.lanes[:t.nl] {
		l.ws.PutVec(l.g)
		l.ws.PutVec(l.acc)
		l.g, l.acc = nil, nil
	}
	t.release()
}

// matVec adds the lane rows' share of every probe's block partial: tile
// by tile, the dots and Γ of all s probes, then each probe's
// accumulation, or, when Γᵀ·X takes the packed path, one probe at a time
// over the whole block.
//
//firal:hotpath
func (l *sweepLane) matVec() {
	m := l.xb.Rows
	if mat.UseBlocked(l.c, l.d, l.m) {
		// As the per-probe composition does: each probe's Γ through
		// mat.MulTransA. The rows are the whole block.
		for j := 0; j < l.s; j++ {
			l.dots(l.g, l.v, l.pv, j*l.c, 0, m, j, j+1)
			l.gamma(l.g, l.c, 0, m)
			l.accumPacked(j)
		}
		return
	}
	gs := l.s * l.c
	for r0 := 0; r0 < m; r0 += sweepTile {
		r1 := min(r0+sweepTile, m)
		l.dots(l.g, l.v, l.pv, 0, r0, r1, 0, l.s)
		l.gamma(l.g, gs, r0, r1)
		for j := 0; j < l.s; j++ {
			l.accumulate(l.g[j*l.c:], gs, j, r0, r1)
		}
	}
}

// accumPacked computes probe j's partial for a block whose Γᵀ·X takes
// the packed path: its Γ (all block rows) goes through mat.MulTransA, so
// the panel order is kept exactly. The operand headers live in the lane,
// so handing them to the worker pool does not allocate.
//
//firal:hotpath
func (l *sweepLane) accumPacked(j int) {
	l.ga = mat.Dense{Rows: l.xb.Rows, Cols: l.c, Stride: l.c, Data: l.g}
	l.pd = mat.Dense{Rows: l.c, Cols: l.d, Stride: l.d, Data: l.partial(j)}
	mat.MulTransA(&l.pd, &l.ga, l.xb)
}

// dots writes the c dot products of lane rows [r0, r1) with probes
// [j0, j1) of the compact probe block vb into g: row r0+i, probe j at
// g[i·gs + (j−j0)·c:][:c], gs = (j1−j0)·c. It multiplies with pb, a
// packing of vb whose column pc0 is probe j0's first, when there is one
// and the block's order has a packed kernel that pays: the blocked order
// always, the unblocked (dotu) order where mat.UseDotuTile. A block in
// the blocked order always has a packing (packProbes), so vb itself is
// only read in the unblocked order.
//
//firal:hotpath
func (l *sweepLane) dots(g []float64, vb *mat.Dense, pb *mat.Packed, pc0, r0, r1, j0, j1 int) {
	gs := (j1 - j0) * l.c
	xs := l.xb.Stride
	xt := mat.Dense{Rows: r1 - r0, Cols: l.d, Stride: xs, Data: l.xb.Data[r0*xs:]}
	gt := mat.Dense{Rows: r1 - r0, Cols: gs, Stride: gs, Data: g}
	if pb != nil && (l.blocked || mat.UseDotuTile(pc0, pc0+gs)) {
		mat.MulPackedRightInOrder(&gt, &xt, pb, pc0, l.blocked)
		return
	}
	vt := mat.Dense{Rows: gs, Cols: l.d, Stride: l.d, Data: vb.Data[j0*vb.Cols:]}
	mat.MulTransBInOrder(&gt, &xt, &vt, false)
}

// gamma rewrites the dots of lane rows [r0, r1) in g (laid out as in
// dots, row stride gs) in place: G_ik ← w_i (G_ik − α_i) h_ik with
// α_i = Σ_k G_ik h_ik summed in mat.Dot's order (from +0, ascending k),
// written out in straight-line code for c = 1 and 2. For c ≥ 3 four
// probes' α run as four independent chains, so their adds overlap.
//
//firal:hotpath
func (l *sweepLane) gamma(g []float64, gs, r0, r1 int) {
	c := l.c
	for i := r0; i < r1; i++ {
		hr := l.h.Row(l.base + i)
		wi := 1.0
		if l.w != nil {
			wi = l.w[l.base+i]
		}
		row := g[(i-r0)*gs : (i-r0+1)*gs]
		switch c {
		case 1:
			h0 := hr[0]
			for j, g0 := range row {
				alpha := 0 + float64(g0*h0)
				row[j] = wi * (g0 - alpha) * h0
			}
		case 2:
			h0, h1 := hr[0], hr[1]
			for j := 0; j+1 < len(row); j += 2 {
				gr := row[j : j+2 : j+2]
				g0, g1 := gr[0], gr[1]
				alpha := 0 + float64(g0*h0) + float64(g1*h1)
				gr[0] = wi * (g0 - alpha) * h0
				gr[1] = wi * (g1 - alpha) * h1
			}
		default:
			j := 0
			for ; j+4*c <= len(row); j += 4 * c {
				g0 := row[j : j+c][:len(hr)]
				g1 := row[j+c : j+2*c][:len(hr)]
				g2 := row[j+2*c : j+3*c][:len(hr)]
				g3 := row[j+3*c : j+4*c][:len(hr)]
				var a0, a1, a2, a3 float64
				for k, hk := range hr {
					a0 += float64(g0[k] * hk)
					a1 += float64(g1[k] * hk)
					a2 += float64(g2[k] * hk)
					a3 += float64(g3[k] * hk)
				}
				for k, hk := range hr {
					g0[k] = wi * (g0[k] - a0) * hk
					g1[k] = wi * (g1[k] - a1) * hk
					g2[k] = wi * (g2[k] - a2) * hk
					g3[k] = wi * (g3[k] - a3) * hk
				}
			}
			for ; j < len(row); j += c {
				gr := row[j : j+c][:len(hr)]
				var alpha float64
				for k, hk := range hr {
					alpha += float64(gr[k] * hk)
				}
				for k, hk := range hr {
					gr[k] = wi * (gr[k] - alpha) * hk
				}
			}
		}
	}
}

// accumulate adds Σ_i Γ_ijk x_i over lane rows [r0, r1) to every class
// row of probe j's partial; g holds probe j's Γ of row r0 at g[:c], row
// stride gs.
//
//firal:hotpath
func (l *sweepLane) accumulate(g []float64, gs, j, r0, r1 int) {
	xs := l.xb.Stride
	xt := mat.Dense{Rows: r1 - r0, Cols: l.d, Stride: xs, Data: l.xb.Data[r0*xs:]}
	out := l.partial(j)
	for k := 0; k < l.c; k++ {
		mat.AccumRows(out[k*l.d:(k+1)*l.d], g[k:], gs, &xt)
	}
}

// packProbes packs the compact probe block vb, read as an (s·c)×d
// matrix, into pk for the packed dots and returns it. It returns nil, and
// the dots read vb in place, when no block of up to rows rows takes the
// blocked order (mat.UseBlocked grows with the row count) and the dotu
// tile does not pay on all the probes' columns (mat.UseDotuTile), so on
// no one probe's columns either.
func (t *sweepTask) packProbes(pk *mat.Packed, vb *mat.Dense, rows int) *mat.Packed {
	if !mat.UseBlocked(rows, t.c, t.d) && !mat.UseDotuTile(0, t.s*t.c) {
		return nil
	}
	pk.PackRight(&mat.Dense{Rows: t.s * t.c, Cols: t.d, Stride: t.d, Data: vb.Data})
	return pk
}

// partial returns probe j's block partial, its region of the lane's
// accumulator.
func (l *sweepLane) partial(j int) []float64 {
	ed := l.d * l.c
	return l.acc[j*ed : (j+1)*ed]
}

// foldPartials adds every probe's block partial into dst.
//
//firal:hotpath
func (l *sweepLane) foldPartials() {
	for j := 0; j < l.s; j++ {
		src, dr := l.partial(j), l.dst.Row(j)
		for q, x := range src {
			dr[q] += x
		}
	}
}

// QuadAccumBlockWS adds scale·(u_jᵀ H_i v_j), summed over all s columns
// of the transposed blocks u and v (s×ẽd, row j = vector j), to dst[i]
// for every pool point i — the whole Eq. 12 gradient accumulation in ONE
// pool sweep, each row tile read once for all probes. For each point the
// per-probe contributions land in ascending j order, exactly as s
// sequential per-probe sweeps would order them, so the result is
// bit-for-bit identical to them. u and v must be compact.
//
//firal:hotpath
func QuadAccumBlockWS(ws *mat.Workspace, p Pool, dst []float64, u, v *mat.Dense, scale float64) {
	checkBlockShapes(p, u, v)
	checkCompact(u, v)
	if len(dst) != p.N() {
		panic("hessian: QuadAccum dst length mismatch")
	}
	t := getSweep(sweepQuad, ws, p)
	t.u, t.v, t.qdst, t.scale, t.s = u, v, dst, scale, u.Rows
	// Every point's row lies in one block, so the blocks write disjoint
	// parts of dst and fold nothing. A lane's scratch holds a tile of
	// both dot sets.
	rows := min(t.bs, t.n)
	t.pu = t.packProbes(&t.upk, u, rows)
	t.pv = t.packProbes(&t.vpk, v, rows)
	for _, l := range t.lanes[:t.nl] {
		l.g = l.ws.Vec(2 * sweepTile * t.s * t.c)
	}
	t.sweep(false)
	for _, l := range t.lanes[:t.nl] {
		l.ws.PutVec(l.g)
		l.g = nil
	}
	t.release()
}

// quad adds the quadratic forms of the lane's rows to dst tile by tile;
// each row takes its probes in ascending order.
//
//firal:hotpath
func (l *sweepLane) quad() {
	sc := l.s * l.c
	m := l.xb.Rows
	gu, gv := l.g[:sweepTile*sc], l.g[sweepTile*sc:]
	for r0 := 0; r0 < m; r0 += sweepTile {
		r1 := min(r0+sweepTile, m)
		l.dots(gu, l.u, l.pu, 0, r0, r1, 0, l.s)
		l.dots(gv, l.v, l.pv, 0, r0, r1, 0, l.s)
		for i := r0; i < r1; i++ {
			hr := l.h.Row(l.base + i)
			q0 := (i - r0) * sc
			hu, hv := gu[q0:q0+sc], gv[q0:q0+sc]
			qi := l.qdst[l.base+i]
			for j := 0; j < sc; j += l.c {
				var alpha, q float64 // alpha in mat.Dot's order
				for k, hk := range hr {
					alpha += float64(hv[j+k] * hk)
				}
				for k, hk := range hr {
					q += float64((hv[j+k] - alpha) * hk * hu[j+k])
				}
				qi += float64(l.scale * q)
			}
			l.qdst[l.base+i] = qi
		}
	}
}

// BlockDiagSumInto computes the c diagonal d×d blocks of Σ_i w_i H_i
// (Eq. 14): block k = Σ_i w_i h_ik(1−h_ik) x_i x_iᵀ. A nil w means unit
// weights. It writes into blocks (allocated when nil) with scratch drawn
// from ws (and the lanes' own workspaces), so callers that rebuild the
// blocks every iteration (the RELAX preconditioner, the distributed
// allreduce) reuse one set of buffers round to round. Row blocks are
// visited outermost, so a streamed source is read once per call, with
// all c class Grams computed per visit; each row block's Grams fold into
// the zeroed blocks in block order, at every block count, as
// MatVecBlockWS folds its partials.
//
//firal:hotpath
func BlockDiagSumInto(ws *mat.Workspace, p Pool, blocks []*mat.Dense, w []float64) []*mat.Dense {
	d, c := p.D(), p.C()
	if blocks == nil {
		blocks = make([]*mat.Dense, c)
		for k := range blocks {
			blocks[k] = mat.NewDense(d, d)
		}
	} else if len(blocks) != c {
		panic("hessian: BlockDiagSumInto block count mismatch")
	}
	for k := range blocks {
		blocks[k].Zero()
	}
	t := getSweep(sweepGram, ws, p)
	t.blocks, t.w = blocks, w
	for _, l := range t.lanes[:t.nl] {
		l.gw = l.ws.Vec(min(t.bs, t.n))
		for len(l.grams) < c {
			//firal:allow(alloc) — amortized: a lane's partial headers grow only with the class count
			l.grams = append(l.grams, nil)
		}
		for k := range c {
			l.grams[k] = l.ws.Matrix(d, d)
		}
	}
	t.sweep(false)
	for _, l := range t.lanes[:t.nl] {
		for k := range c {
			l.ws.PutMatrix(l.grams[k])
			l.grams[k] = nil
		}
		l.ws.PutVec(l.gw)
		l.gw = nil
	}
	t.release()
	return blocks
}

// gram adds the lane rows' Gram of every class to the lower triangles
// of the lane's partials, on the lane's goroutine; Compute zeroes them
// before the block's first rows and mirrors them after its last.
//
//firal:hotpath
func (l *sweepLane) gram() {
	u := l.gw[:l.xb.Rows]
	for k := 0; k < l.c; k++ {
		for i := range u {
			wi := 1.0
			if l.w != nil {
				wi = l.w[l.base+i]
			}
			hv := l.h.At(l.base+i, k)
			u[i] = wi * hv * (1 - hv)
		}
		mat.WeightedGramAddLower(l.grams[k], l.xb, u)
	}
}
