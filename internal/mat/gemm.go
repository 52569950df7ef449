package mat

import "repro/internal/parallel"

// Matrix-product kernels. Large products run through a cache-blocked,
// panel-packed GEMM (the standard GotoBLAS/BLIS decomposition): A and B
// tiles are copied into contiguous panels so the inner kernel streams
// packed memory regardless of the operand layout — in particular aᵀ·b no
// longer strides down columns — and a 4×8 register micro-kernel (4×16
// over two lane panels at the avx512 level) turns each loaded element
// into several fused multiply-adds. The panel layout, the
// packing routine, the micro-kernel and the Packed operand type, which
// lets a caller pack a constant operand once for many products, live in
// packed.go. Small products keep the register-friendly row-sweep
// reference kernels, where packing overhead would dominate.
//
// The inner loops run at one kernel level, picked once at start-up from
// CPUID (gemm_kernel_amd64.go): AVX-512F and FMA on amd64 hosts whose OS
// saves the ZMM state (the GEMM micro-kernel, AccumRows' widest pass and the
// Gram's rank-4 update, with AVX for the rest), AVX on amd64 hosts with
// FMA and only the YMM state (the micro-kernel, the row kernels and the
// Gram update of dot_amd64.s), and the portable Go loops everywhere else.
// Every level adds each product term with one fused multiply-add
// (math.FMA in the Go loops, see fma), in the same order, so all three
// give the same bits.
//
// No kernel's bits depend on the worker count: workers split output
// elements (rows of a product, rows of the Gram triangle), never the
// summation of one element, and every output element accumulates its
// terms in the same order (k-panels of gemmKC in ascending order, points
// in ascending order) however the elements are distributed. The blocked
// kernels reorder floating-point sums relative to the reference kernels,
// so results agree to roundoff (~1e-12 relative), not bit-for-bit.

const (
	gemmMR = 4 // micro-kernel rows
	gemmNR = 8 // micro-kernel cols
	gemmKC = 256
	gemmMC = 64
	gemmNC = 512
	// gemmMinWork gates the blocked path: below this many multiply-adds
	// the packing overhead outweighs the cache savings.
	gemmMinWork = 1 << 15
	// gemmRowFloor is the per-worker row floor for parallel products: a
	// GEMM row costs n·k flops, so far fewer rows than parallel.ForChunk's
	// scalar-loop floor justify a goroutine.
	gemmRowFloor = 8
)

// kernelLevel names the widest register kernels the host runs. The
// package-level kernel holds it; it is set once at start-up.
type kernelLevel uint8

const (
	kernelPortable kernelLevel = iota // the Go loops
	kernelAVX                         // 256-bit AVX
	kernelAVX512                      // 512-bit AVX-512F where a kernel has it, AVX elsewhere
)

var kernelNames = [...]string{"portable", "avx", "avx512"}

func (l kernelLevel) String() string { return kernelNames[l] }

// KernelLevel names the kernel level this process runs: "avx512", "avx"
// or "portable".
func KernelLevel() string { return kernel.String() }

// gemmScratch holds one worker's packing panels.
type gemmScratch struct {
	a, b []float64
}

var gemmPool = parallel.FreeList[gemmScratch]{New: func() *gemmScratch { return new(gemmScratch) }}

func growBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// panelLen is the packing scratch one k-panel needs: r operand rows, at
// most rmax of them per panel, in lanes of w, over an inner dimension k
// of at most gemmKC. Scratch sized to the product rather than to the
// largest panel keeps the pooled buffers of small products, several of
// which can run at once, small.
func panelLen(r, rmax, w, k int) int {
	return (min(r, rmax) + w - 1) / w * w * min(k, gemmKC)
}

// UseBlocked reports whether the product kernels compute an m×n result
// with inner dimension k on the packed-panel (blocked) path. It is the one
// dispatch rule between the two per-element summation orders:
//
//   - blocked: each gemmKC-long k-panel is summed sequentially from zero
//     and the panel sums are added in ascending order onto a zeroed
//     destination;
//   - reference: the four-lane order of dotu for a·bᵀ, and rows added in
//     ascending order (zero coefficients skipped) for aᵀ·b.
//
// An element's value depends only on its operands and the order, never on
// the product's other rows or columns, so a caller that batches or splits
// a product stays bit-identical to the product it stands in for as long
// as it keeps that product's order (see MulTransBInOrder, AccumRows).
func UseBlocked(m, n, k int) bool {
	return m >= 16 && n >= 8 && k >= 8 && m*n*k >= gemmMinWork
}

// Mul computes dst = a*b. dst must not alias a or b. If dst is nil a new
// matrix is allocated. Rows of dst are computed in parallel.
//
//firal:hotpath
func Mul(dst, a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("mat: Mul inner dimension mismatch")
	}
	dst = prepDst(dst, a.Rows, b.Cols)
	if UseBlocked(a.Rows, b.Cols, a.Cols) {
		gemm(dst, a, b, false, false)
		return dst
	}
	if parallel.Serial(a.Rows) {
		refMulRange(dst, a, b, 0, a.Rows)
		return dst
	}
	t := mulTasks.Get()
	t.m1, t.m2, t.m3 = dst, a, b
	parallel.ForChunk(a.Rows, t.fn)
	t.release(mulTasks)
	return dst
}

var mulTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	refMulRange(t.m1, t.m2, t.m3, lo, hi)
})

// MulTransA computes dst = aᵀ*b for a (n×r) and b (n×c), yielding r×c.
// dst must not alias a or b.
//
//firal:hotpath
func MulTransA(dst, a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("mat: MulTransA row mismatch")
	}
	dst = prepDst(dst, a.Cols, b.Cols)
	if UseBlocked(a.Cols, b.Cols, a.Rows) {
		gemm(dst, a, b, true, false)
		return dst
	}
	// Small path: k-outer accumulation walks a and b row-major (the packed
	// kernel's job at scale); each worker owns a disjoint dst row range.
	if parallel.SerialMin(a.Cols, gemmRowFloor) {
		mulTransASmallRange(dst, a, b, 0, a.Cols)
		return dst
	}
	t := mulTransATasks.Get()
	t.m1, t.m2, t.m3 = dst, a, b
	parallel.ForChunkMin(a.Cols, gemmRowFloor, t.fn)
	t.release(mulTransATasks)
	return dst
}

// MulWS is Mul on the calling goroutine, with its packing scratch drawn
// from ws. It is for callers that already run one task per pool worker,
// such as ROUND's per-class solves: they gain nothing from a nested fan
// out, and sharing the global packing scratch across them regrows those
// buffers as they pass between product shapes. Same bits as Mul; dst
// must not be nil.
//
//firal:hotpath
func MulWS(ws *Workspace, dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic("mat: Mul inner dimension mismatch")
	}
	prepDst(dst, a.Rows, b.Cols)
	if UseBlocked(a.Rows, b.Cols, a.Cols) {
		gemmWS(ws, dst, a, b, false)
		return
	}
	refMulRange(dst, a, b, 0, a.Rows)
}

// MulTransAWS is MulTransA as MulWS is Mul.
//
//firal:hotpath
func MulTransAWS(ws *Workspace, dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic("mat: MulTransA row mismatch")
	}
	prepDst(dst, a.Cols, b.Cols)
	if UseBlocked(a.Cols, b.Cols, a.Rows) {
		gemmWS(ws, dst, a, b, true)
		return
	}
	mulTransASmallRange(dst, a, b, 0, a.Cols)
}

var mulTransATasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	mulTransASmallRange(t.m1, t.m2, t.m3, lo, hi)
})

//firal:hotpath
func mulTransASmallRange(dst, a, b *Dense, lo, hi int) {
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)[lo:hi]
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst.Row(lo + i)
			for j, bv := range br {
				dr[j] = fma(av, bv, dr[j])
			}
		}
	}
}

// MulTransB computes dst = a*bᵀ for a (m×k) and b (n×k), yielding m×n.
// dst must not alias a or b.
//
//firal:hotpath
func MulTransB(dst, a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("mat: MulTransB column mismatch")
	}
	dst = prepDst(dst, a.Rows, b.Rows)
	if UseBlocked(a.Rows, b.Rows, a.Cols) {
		gemm(dst, a, b, false, true)
		return dst
	}
	if parallel.SerialMin(a.Rows, gemmRowFloor) {
		mulTransBSmallRange(dst, a, b, 0, a.Rows)
		return dst
	}
	t := mulTransBTasks.Get()
	t.m1, t.m2, t.m3 = dst, a, b
	parallel.ForChunkMin(a.Rows, gemmRowFloor, t.fn)
	t.release(mulTransBTasks)
	return dst
}

var mulTransBTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	mulTransBSmallRange(t.m1, t.m2, t.m3, lo, hi)
})

//firal:hotpath
func mulTransBSmallRange(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		dotsLanes(dst.Row(i), a.Row(i), b)
	}
}

// MulTransBInOrder computes dst = a*bᵀ on the calling goroutine in the
// summation order the caller names: the blocked order when blocked is
// true, the reference (dotu) order otherwise, whatever the shapes (see
// UseBlocked). It lets a kernel batch the products of several operands
// into one call, or split one product into row tiles, and still match
// MulTransB bit for bit. dst must not alias a or b.
//
//firal:hotpath
func MulTransBInOrder(dst, a, b *Dense, blocked bool) {
	if a.Cols != b.Cols {
		panic("mat: MulTransB column mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: destination has wrong shape")
	}
	if blocked {
		dst.Zero() // the packed kernels accumulate onto dst
		gemmSerial(dst, a, b, false, true)
		return
	}
	mulTransBSmallRange(dst, a, b, 0, a.Rows) // writes every element
}

// gemm runs the blocked product dst = op(a)·op(b) on a zeroed dst.
// Each B tile is packed exactly once, on the calling goroutine; the
// row-parallel workers share it read-only and pack only their own A
// blocks. Workers split output rows, so the result is identical for any
// worker count.
//
//firal:hotpath
func gemm(dst, a, b *Dense, transA, transB bool) {
	m, n := dst.Rows, dst.Cols
	if parallel.SerialMin(m, gemmRowFloor) {
		gemmSerial(dst, a, b, transA, transB)
		return
	}
	kd := a.Cols
	if transA {
		kd = a.Rows
	}
	sc := gemmPool.Get()
	bp := growBuf(&sc.b, panelLen(n, gemmNC, gemmNR, kd))
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < kd; pc += gemmKC {
			kc := min(gemmKC, kd-pc)
			pack(bp, b, !transB, jc, pc, nc, kc, gemmNR)
			// Out-of-line call: a closure here would capture gemm's loop
			// variables and heap-allocate them every iteration.
			gemmTileParallel(dst, a, transA, bp, pc, jc, kc, nc, m)
		}
	}
	gemmPool.Put(sc)
}

// gemmSerial is gemm on the calling goroutine. It never hands its
// operands to the worker pool, so they do not escape: callers may pass
// stack-held matrix headers (views of row tiles) without allocating.
//
//firal:hotpath
func gemmSerial(dst, a, b *Dense, transA, transB bool) {
	m, n := dst.Rows, dst.Cols
	kd := a.Cols
	if transA {
		kd = a.Rows
	}
	sc := gemmPool.Get()
	bp := growBuf(&sc.b, panelLen(n, gemmNC, gemmNR, kd))
	ap := growBuf(&sc.a, panelLen(m, gemmMC, gemmMR, kd))
	gemmPanels(dst, a, b, transA, transB, ap, bp)
	gemmPool.Put(sc)
}

// gemmWS is gemmSerial for an untransposed b, with its packing scratch
// from ws.
//
//firal:hotpath
func gemmWS(ws *Workspace, dst, a, b *Dense, transA bool) {
	kd := a.Cols
	if transA {
		kd = a.Rows
	}
	bp := ws.Vec(panelLen(dst.Cols, gemmNC, gemmNR, kd))
	ap := ws.Vec(panelLen(dst.Rows, gemmMC, gemmMR, kd))
	gemmPanels(dst, a, b, transA, false, ap, bp)
	ws.PutVec(ap)
	ws.PutVec(bp)
}

// gemmPanels runs gemmSerial's loops with the packing scratch ap and bp.
//
//firal:hotpath
func gemmPanels(dst, a, b *Dense, transA, transB bool, ap, bp []float64) {
	m, n := dst.Rows, dst.Cols
	kd := a.Cols
	if transA {
		kd = a.Rows
	}
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < kd; pc += gemmKC {
			kc := min(gemmKC, kd-pc)
			pack(bp, b, !transB, jc, pc, nc, kc, gemmNR)
			gemmRowRange(dst, a, transA, ap, bp, pc, jc, kc, nc, 0, m)
		}
	}
}

// gemmTileParallel fans the row loop of one packed-B tile out across
// workers; each worker packs its own A blocks from pooled scratch.
//
//firal:hotpath
func gemmTileParallel(dst, a *Dense, transA bool, bp []float64, pc, jc, kc, nc, m int) {
	t := gemmTileTasks.Get()
	t.m1, t.m2, t.b1, t.v1 = dst, a, transA, bp
	t.i1, t.i2, t.i3, t.i4 = pc, jc, kc, nc
	parallel.ForChunkMin(m, gemmRowFloor, t.fn)
	t.release(gemmTileTasks)
}

var gemmTileTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	wsc := gemmPool.Get()
	ap := growBuf(&wsc.a, panelLen(hi-lo, gemmMC, gemmMR, t.i3))
	gemmRowRange(t.m1, t.m2, t.b1, ap, t.v1, t.i1, t.i2, t.i3, t.i4, lo, hi)
	gemmPool.Put(wsc)
})

// gemmRowRange runs the micro-kernels for output rows [lo, hi) of one
// (pc, jc) tile, packing A blocks into ap and reading the shared packed B
// panel bp.
//
//firal:hotpath
func gemmRowRange(dst, a *Dense, transA bool, ap, bp []float64, pc, jc, kc, nc, lo, hi int) {
	for ic := lo; ic < hi; ic += gemmMC {
		mc := min(gemmMC, hi-ic)
		pack(ap, a, transA, ic, pc, mc, kc, gemmMR)
		macroTile(dst, ic, jc, ap, bp, kc, mc, 0, nc, pc == 0)
	}
}

// dotu is an instruction-parallel dot product (four independent
// accumulators). It reorders the summation relative to Dot, so kernels
// built on it agree with the reference kernels to roundoff, not
// bit-for-bit. On amd64 hosts with AVX it runs the loop of dot_amd64.s,
// which sums in exactly dotuGo's order.
//
//firal:hotpath
func dotu(x, y []float64) float64 {
	if len(y) != len(x) {
		panic("mat: dot length mismatch")
	}
	if kernel == kernelPortable || len(x) == 0 {
		return dotuGo(x, y)
	}
	var r float64
	dotsLanesAVX(len(x), &x[0], &y[0], 0, 1, &r)
	return r
}

// dotsLanes writes out[j] = dotu(x, b.Row(j)) for every row of b: the
// reference a·bᵀ row kernel, four rows of b per pass on amd64 with AVX.
//
//firal:hotpath
func dotsLanes(out, x []float64, b *Dense) {
	if b.Cols != len(x) {
		panic("mat: dot length mismatch")
	}
	out = out[:b.Rows]
	if kernel == kernelPortable || len(x) == 0 || b.Rows == 0 {
		for j := range out {
			out[j] = dotuGo(x, b.Row(j))
		}
		return
	}
	_ = b.Row(b.Rows - 1) // bounds: every row lies inside b.Data
	dotsLanesAVX(len(x), &x[0], &b.Data[0], b.Stride, b.Rows, &out[0])
}

// dotuGo is the portable four-lane dot product: lane l adds x[i]·y[i]
// over i ≡ l (mod 4) with one fused multiply-add per term, the tail joins
// lane 0, and the lanes combine as (l0 + l1) + (l2 + l3).
//
//firal:hotpath
func dotuGo(x, y []float64) float64 {
	n := len(x)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		xv := x[i : i+4 : i+4]
		yv := y[i : i+4 : i+4]
		s0 = fma(xv[0], yv[0], s0)
		s1 = fma(xv[1], yv[1], s1)
		s2 = fma(xv[2], yv[2], s2)
		s3 = fma(xv[3], yv[3], s3)
	}
	for ; i < n; i++ {
		s0 = fma(x[i], y[i], s0)
	}
	return (s0 + s1) + (s2 + s3)
}

// AccumRows adds Σ_i g[i·gs]·x_i to y over the rows x_i of x in ascending
// order, skipping zero coefficients, one fused multiply-add per term: per
// element, exactly the operations with which the reference aᵀ·b kernel
// accumulates one output row (a's column read with stride gs). y must have x.Cols elements. On amd64 hosts with
// AVX the loops of dot_amd64.s keep a run of columns of y in registers
// across the row loop: sixty-four, then thirty-two at a time with
// AVX-512F, then sixteen, four and one.
//
//firal:hotpath
func AccumRows(y, g []float64, gs int, x *Dense) {
	if len(y) != x.Cols {
		panic("mat: AccumRows length mismatch")
	}
	if x.Rows == 0 || len(y) == 0 {
		return
	}
	_ = g[(x.Rows-1)*gs]  // bounds: every coefficient lies inside g
	_ = x.Row(x.Rows - 1) // and every row inside x.Data
	if kernel == kernelPortable {
		accumRowsGo(y, g, gs, x)
		return
	}
	n, w := len(y), 0
	if kernel == kernelAVX512 {
		if w = n &^ 31; w > 0 {
			accumRowsAVX512(w, &y[0], &g[0], gs, &x.Data[0], x.Stride, x.Rows)
		}
	}
	if w < n {
		accumRowsAVX(n-w, &y[w], &g[0], gs, &x.Data[w], x.Stride, x.Rows)
	}
}

// accumRowsGo is the portable AccumRows loop.
//
//firal:hotpath
func accumRowsGo(y, g []float64, gs int, x *Dense) {
	for i := 0; i < x.Rows; i++ {
		gi := g[i*gs]
		if gi == 0 {
			continue
		}
		for t, xv := range x.Row(i) {
			y[t] = fma(gi, xv, y[t])
		}
	}
}

// MatVec computes dst = a*x. If dst is nil it is allocated.
//
//firal:hotpath
func MatVec(dst []float64, a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: MatVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	} else if len(dst) != a.Rows {
		panic("mat: MatVec dst length mismatch")
	}
	if parallel.Serial(a.Rows) {
		matVecRange(dst, a, x, 0, a.Rows)
		return dst
	}
	t := matVecTasks.Get()
	t.v1, t.m1, t.v2 = dst, a, x
	parallel.ForChunk(a.Rows, t.fn)
	t.release(matVecTasks)
	return dst
}

var matVecTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	matVecRange(t.v1, t.m1, t.v2, lo, hi)
})

//firal:hotpath
func matVecRange(dst []float64, a *Dense, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = dotu(a.Row(i), x)
	}
}

// WeightedGram computes dst = Xᵀ diag(w) X for X (n×d), yielding the d×d
// symmetric matrix Σ_i w_i x_i x_iᵀ. This is the kernel behind the
// block-diagonal preconditioner of Eq. 14: B_k(Σ) = Σ_i w_ik x_i x_iᵀ.
// Entries of w may be any sign. If w is nil, unit weights are used.
//
// Only the lower triangle is accumulated (rank-4 panels of rows); the
// upper triangle is mirrored at the end, so the result is exactly
// symmetric. Workers split the triangle, not the points: each takes a
// chunk of pairs of triangle rows, row i with row d−1−i, so every pair
// (bar an odd d's middle row) holds d+1 elements and chunks balance. Every
// worker sums over all points in the serial order, so each element is the
// serial sum at any worker count.
//
//firal:hotpath
func WeightedGram(dst *Dense, x *Dense, w []float64) *Dense {
	d := x.Cols
	dst = prepDst(dst, d, d)
	// A pair costs n·(d+1) multiply-adds; engage a worker for at least
	// gemmMinWork of them.
	pairs := (d + 1) / 2
	minPairs := 1 + gemmMinWork/(x.Rows*(d+1)+1)
	if parallel.SerialMin(pairs, minPairs) {
		weightedGramRange(dst, x, w, 0, d)
	} else {
		t := gramTasks.Get()
		t.m1, t.m2, t.v1 = dst, x, w
		parallel.ForChunkMin(pairs, minPairs, t.fn)
		t.release(gramTasks)
	}
	MirrorLower(dst)
	return dst
}

// WeightedGramAddLower adds Σ_i w_i x_i x_iᵀ to the lower triangle of
// the d×d dst (nil w: unit weights) on the calling goroutine, in
// WeightedGram's order: four points at a time from x's first row, a lone
// tail point at a time. So the Gram of a block cut into pieces whose row
// counts (but the last's) are multiples of four, added piece by piece in
// order onto a zeroed dst and mirrored once (MirrorLower), has
// WeightedGram's bits: a caller that already runs one of several workers
// computes a block's Gram without holding the whole block.
//
//firal:hotpath
func WeightedGramAddLower(dst *Dense, x *Dense, w []float64) {
	d := x.Cols
	if dst.Rows != d || dst.Cols != d {
		panic("mat: destination has wrong shape")
	}
	weightedGramRange(dst, x, w, 0, d)
}

// gramTasks runs the pairs [lo, hi): triangle rows [lo, hi) and their
// mirrors [d−hi, d−lo), less the middle row of an odd d already done.
var gramTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	d := t.m2.Cols
	weightedGramRange(t.m1, t.m2, t.v1, lo, hi)
	weightedGramRange(t.m1, t.m2, t.v1, max(hi, d-hi), d-lo)
})

// weightedGramRange accumulates rows [r0, r1) of the lower triangle of
// Σ_i w_i x_i x_iᵀ over every point in order, four points at a time so
// each loaded dst element absorbs four terms: the first a multiply, the
// other three fused multiply-adds onto it, and then one add onto dst. A
// lone point is one fused multiply-add onto dst. On amd64 hosts the
// rank-4 update runs a loop of dot_amd64.s in the same order: eight
// columns per instruction at the avx512 level, four at avx.
//
//firal:hotpath
func weightedGramRange(dst *Dense, x *Dense, w []float64, r0, r1 int) {
	if r0 >= r1 {
		return
	}
	n := x.Rows
	i := 0
	for ; i+4 <= n; i += 4 {
		w0, w1, w2, w3 := 1.0, 1.0, 1.0, 1.0
		if w != nil {
			w0, w1, w2, w3 = w[i], w[i+1], w[i+2], w[i+3]
			if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
				continue
			}
		}
		x0 := x.Row(i)
		x1 := x.Row(i + 1)
		x2 := x.Row(i + 2)
		x3 := x.Row(i + 3)
		if kernel != kernelPortable {
			_ = dst.Row(r1 - 1)[r1-1] // bounds: the triangle rows lie inside dst
			_ = x3[r1-1]
			if kernel == kernelAVX512 {
				gramRank4AVX512(r0, r1, &dst.Data[0], dst.Stride, &x0[0], x.Stride, w0, w1, w2, w3)
			} else {
				gramRank4AVX(r0, r1, &dst.Data[0], dst.Stride, &x0[0], x.Stride, w0, w1, w2, w3)
			}
			continue
		}
		for r := r0; r < r1; r++ {
			v0 := w0 * x0[r]
			v1 := w1 * x1[r]
			v2 := w2 * x2[r]
			v3 := w3 * x3[r]
			row := dst.Row(r)[: r+1 : r+1]
			for c := range row {
				t := v0 * x0[c]
				t = fma(v1, x1[c], t)
				t = fma(v2, x2[c], t)
				row[c] += fma(v3, x3[c], t)
			}
		}
	}
	for ; i < n; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi == 0 {
			continue
		}
		xi := x.Row(i)
		for r := r0; r < r1; r++ {
			v := wi * xi[r]
			if v == 0 {
				continue
			}
			row := dst.Row(r)[: r+1 : r+1]
			for c := range row {
				row[c] = fma(v, xi[c], row[c])
			}
		}
	}
}

// MirrorLower copies the strict lower triangle of the square dst into
// the upper.
//
//firal:hotpath
func MirrorLower(dst *Dense) {
	for r := 1; r < dst.Rows; r++ {
		row := dst.Row(r)
		for c := 0; c < r; c++ {
			dst.Set(c, r, row[c])
		}
	}
}

// RowDots computes dst[i] = Σ_j a_ij * b_ij, i.e. the diagonal of a*bᵀ.
// This implements the diag(X M Xᵀ) pattern of the ROUND objective (Eq. 17):
// pass a = X and b = X*M. If dst is nil it is allocated.
//
//firal:hotpath
func RowDots(dst []float64, a, b *Dense) []float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: RowDots shape mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	if parallel.Serial(a.Rows) {
		rowDotsRange(dst, a, b, 0, a.Rows)
		return dst
	}
	t := rowDotsTasks.Get()
	t.v1, t.m1, t.m2 = dst, a, b
	parallel.ForChunk(a.Rows, t.fn)
	t.release(rowDotsTasks)
	return dst
}

var rowDotsTasks = newChunkTaskPool(func(t *kernelTask, lo, hi int) {
	rowDotsRange(t.v1, t.m1, t.m2, lo, hi)
})

//firal:hotpath
func rowDotsRange(dst []float64, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = dotu(a.Row(i), b.Row(i))
	}
}

func prepDst(dst *Dense, r, c int) *Dense {
	if dst == nil {
		return NewDense(r, c)
	}
	if dst.Rows != r || dst.Cols != c {
		panic("mat: destination has wrong shape")
	}
	dst.Zero()
	return dst
}
