package mat

// Packed operands and the register micro-kernel of the blocked product.
//
// The blocked kernels copy their operands into panels, so the inner kernel
// streams contiguous memory whatever the operand layout, and each loaded
// element feeds several multiply-adds. This file is the one place that
// knows the panel layout: pack writes it, micro4x8 and dotuTile (the
// unblocked, dotu-order product of a right operand) read it, and Packed
// keeps a whole constant operand in it, so the products that reuse one
// operand (ROUND's stack of every W_kᵀ, the Lemma-2 probe block) copy it
// once instead of once per product.
//
// Layout. An operand of r rows — the product's rows for a left operand,
// its columns for a right one — and inner dimension k is cut into
// k-panels of gemmKC (the last one ragged), and each k-panel into lane
// panels of w rows: w = gemmMR = 4 on the left, w = gemmNR = 8 on the
// right. A lane panel holds its w rows interleaved by k: element
// (q·w + l, pc + t) sits at t·w + l of lane panel q, and rows past r are
// zero. The k-panel at pc starts at pc·rp, with rp = r rounded up to w;
// lane panel q starts q·w·kc into it.
//
// The micro-kernel multiplies one left lane panel by one right lane panel
// into a 4×8 tile. Tile element (i, j) sums a_it·b_jt over the k-panel in
// ascending t from zero, a multiply and then an add per step (never a
// fused multiply-add, see gemm_kernel_amd64.go). Every blocked product
// stores the tiles of its first k-panel and adds those of the later ones
// onto them in ascending order — the bits of adding every tile onto a
// zeroed destination — so the gemm paths, MulPacked and MulPackedRight
// give the same bits for the same element.

// Packed is one operand of the blocked product a·bᵀ, copied into the panel
// layout above. Its owner packs it with PackLeft or PackRight, repacks it
// whenever the operand changes, and passes it to MulPacked or
// MulPackedRight as often as it likes. The zero value is ready to pack;
// the storage grows to the largest operand packed and is then reused. A
// Packed is read-only while products use it, so several goroutines may
// share one.
type Packed struct {
	rows, k int // operand rows and inner dimension
	w       int // lane panel width: gemmMR (left) or gemmNR (right)
	data    []float64
}

// PackLeft packs a (m×k) as the left operand of a·bᵀ: its rows are the
// rows of the product.
func (p *Packed) PackLeft(a *Dense) { p.fill(a, gemmMR) }

// PackRight packs b (n×k) as the right operand of a·bᵀ: its rows are the
// columns of the product.
func (p *Packed) PackRight(b *Dense) { p.fill(b, gemmNR) }

func (p *Packed) fill(src *Dense, w int) {
	p.rows, p.k, p.w = src.Rows, src.Cols, w
	rp := p.padded()
	data := growBuf(&p.data, rp*p.k)
	for pc := 0; pc < p.k; pc += gemmKC {
		pack(data[pc*rp:], src, false, 0, pc, p.rows, min(gemmKC, p.k-pc), w)
	}
}

// padded is the operand's row count rounded up to its lane panel width.
func (p *Packed) padded() int { return (p.rows + p.w - 1) / p.w * p.w }

// MulPacked sets dst to a·b_cᵀ, where a is a packed left operand with
// dst.Rows rows and b_c is rows [c0, c0+dst.Cols) of the matrix packed in
// the right operand b. Each element is bit for bit the one
// MulTransBInOrder(dst, a, b_c, true) computes. It runs on the calling
// goroutine. dst must not alias either operand's matrix.
//
//firal:hotpath
func MulPacked(dst *Dense, a, b *Packed, c0 int) {
	checkPacked(dst, b, c0, a.k)
	if a.w != gemmMR || a.rows != dst.Rows {
		panic("mat: MulPacked needs a left operand with the destination's rows")
	}
	if a.k == 0 {
		dst.Zero() // an empty sum is +0
		return
	}
	arp, brp := a.padded(), b.padded()
	for pc := 0; pc < a.k; pc += gemmKC {
		kc := min(gemmKC, a.k-pc)
		macroTile(dst, 0, 0, a.data[pc*arp:], b.data[pc*brp:], kc, a.rows, c0, c0+dst.Cols, pc == 0)
	}
}

// MulPackedRight is MulPacked with an unpacked left operand a, which it
// packs a gemmMC-row block at a time into pooled scratch.
//
//firal:hotpath
func MulPackedRight(dst, a *Dense, b *Packed, c0 int) {
	checkPacked(dst, b, c0, a.Cols)
	if a.Rows != dst.Rows {
		panic("mat: destination has wrong shape")
	}
	if b.k == 0 {
		dst.Zero() // an empty sum is +0
		return
	}
	sc := gemmPool.Get()
	ap := growBuf(&sc.a, panelLen(a.Rows, gemmMC, gemmMR, b.k))
	brp := b.padded()
	for ic := 0; ic < a.Rows; ic += gemmMC {
		mc := min(gemmMC, a.Rows-ic)
		for pc := 0; pc < b.k; pc += gemmKC {
			kc := min(gemmKC, b.k-pc)
			pack(ap, a, false, ic, pc, mc, kc, gemmMR)
			macroTile(dst, ic, 0, ap, b.data[pc*brp:], kc, mc, c0, c0+dst.Cols, pc == 0)
		}
	}
	gemmPool.Put(sc)
}

// MulPackedRightInOrder is MulPackedRight in the order MulTransBInOrder
// takes: each element is bit for bit the one MulTransBInOrder(dst, a,
// b_c, blocked) computes. The unblocked order is dotu's four lanes per
// element; it runs dotuTile over four rows of a and one right lane panel
// at a time, k-panel by k-panel, so the lanes of a dot longer than one
// k-panel carry over (gemmKC is a multiple of four, so every k-panel
// starts on lane 0). The tile writes only the rows and columns of dst it
// covers. It runs on the calling goroutine.
//
//firal:hotpath
func MulPackedRightInOrder(dst, a *Dense, b *Packed, c0 int, blocked bool) {
	if blocked {
		MulPackedRight(dst, a, b, c0)
		return
	}
	checkPacked(dst, b, c0, a.Cols)
	if a.Rows != dst.Rows {
		panic("mat: destination has wrong shape")
	}
	if b.k == 0 {
		dst.Zero() // an empty dotu is +0
		return
	}
	brp := b.padded()
	var lanes dotuLanes
	c1 := c0 + dst.Cols
	for i := 0; i < a.Rows; i += gemmMR {
		mr := min(gemmMR, a.Rows-i)
		for pj := c0 - c0%gemmNR; pj < c1; pj += gemmNR {
			t0, t1 := max(c0-pj, 0), min(c1-pj, gemmNR)
			out := dst.Data[i*dst.Stride+pj+t0-c0:]
			for pc := 0; pc < b.k; pc += gemmKC {
				kc := min(gemmKC, b.k-pc)
				dotuTile(kc, a, i, mr, pc, b.data[pc*brp+pj*kc:], &lanes, out, dst.Stride, t0, t1, pc == 0, pc+kc == b.k)
			}
		}
	}
}

// UseDotuTile reports whether the unblocked order of
// MulPackedRightInOrder should compute columns [c0, c1) of a product,
// rather than MulTransBInOrder on the unpacked operand, which gives the
// same bits. The dotu tile runs at the avx512 level only; elsewhere
// MulPackedRightInOrder runs a Go loop. It computes whole lane panels of
// eight columns, at about the cost of four columns of the row loop
// (dotsLanesAVX) at d = 64, so it pays when the panels the window
// touches hold less than twice its columns.
func UseDotuTile(c0, c1 int) bool {
	panels := (c1+gemmNR-1)/gemmNR - c0/gemmNR
	return kernel == kernelAVX512 && 2*gemmNR*panels < 4*(c1-c0)
}

// dotuLanes holds the sixteen lane accumulators of a dotu tile between
// k-panels: row r's lane l for the eight panel rows at [(4r+l)·8:].
type dotuLanes [gemmMR * 4 * gemmNR]float64

// dotuTile runs the dotu lanes of rows [i, i+mr) of a, columns
// [pc, pc+kc), against the right lane panel bp over its kc steps. Lane l
// of a row and a panel row adds a_t·b_t over t ≡ l (mod 4) in ascending
// t, the kc%4 tail joins lane 0: a multiply with a's value first, then
// an add onto the lane, as dotuGo sums. With first set the lanes start from +0, else
// from lanes. With last set the sums (l0 + l1) + (l2 + l3) of row r < mr
// and panel rows [t0, t1) go to out[r·os:][:t1−t0]; otherwise the lanes
// go back to lanes for the next k-panel. Tile rows past mr repeat row
// i+mr−1 and are not written.
//
//firal:hotpath
func dotuTile(kc int, a *Dense, i, mr, pc int, bp []float64, lanes *dotuLanes, out []float64, os, t0, t1 int, first, last bool) {
	x0 := a.Data[i*a.Stride+pc:][:kc]
	x1 := a.Data[(i+min(1, mr-1))*a.Stride+pc:][:kc]
	x2 := a.Data[(i+min(2, mr-1))*a.Stride+pc:][:kc]
	x3 := a.Data[(i+min(3, mr-1))*a.Stride+pc:][:kc]
	bp = bp[:gemmNR*kc]
	_ = out[(mr-1)*os+t1-t0-1]
	if kernel == kernelAVX512 {
		mask := 1<<t1 - 1<<t0
		dotuTileAVX512(kc, &x0[0], &x1[0], &x2[0], &x3[0], &bp[0], &lanes[0], &out[0], os, t0, mask, mr, first, last)
		return
	}
	if first {
		clear(lanes[:])
	}
	var sums [gemmMR * gemmNR]float64
	for r, xr := range [gemmMR][]float64{x0, x1, x2, x3} {
		ln := lanes[r*4*gemmNR : (r+1)*4*gemmNR]
		for j := 0; j < gemmNR; j++ {
			s0, s1, s2, s3 := ln[j], ln[gemmNR+j], ln[2*gemmNR+j], ln[3*gemmNR+j]
			t := 0
			for ; t+4 <= kc; t += 4 {
				s0 += xr[t] * bp[gemmNR*t+j]
				s1 += xr[t+1] * bp[gemmNR*(t+1)+j]
				s2 += xr[t+2] * bp[gemmNR*(t+2)+j]
				s3 += xr[t+3] * bp[gemmNR*(t+3)+j]
			}
			for ; t < kc; t++ {
				s0 += xr[t] * bp[gemmNR*t+j]
			}
			ln[j], ln[gemmNR+j], ln[2*gemmNR+j], ln[3*gemmNR+j] = s0, s1, s2, s3
			sums[r*gemmNR+j] = (s0 + s1) + (s2 + s3)
		}
	}
	if last {
		for r := 0; r < mr; r++ {
			copy(out[r*os:r*os+t1-t0], sums[r*gemmNR+t0:])
		}
	}
}

// WeightedSqNorms sets, for every row p of the product y = x·wᵀ of the
// packed right operand x (rows p) and the packed left operand w (rows j),
//
//	qb[p] = Σ_j y_pj²·a[j],   qp[p] = Σ_j y_pj²·a2[j],
//
// each sum over ascending j from zero, a multiply and then an add per
// term: ROUND's two weighted row norms, without forming y. Each y_pj is
// the element MulPacked computes for the operands packed the other way
// round (the same products, each commuted, summed in the same order),
// up to the sign of a zero, which its square drops. It runs on the
// calling goroutine.
//
// y is formed in 4×8 tiles — four rows j of w by eight rows p of x —
// which are folded into the eight points' sums as soon as they are
// complete, in ascending j, so no tile is zeroed, stored or read back. At
// the avx512 level one kernel call keeps the tile and both sums of eight
// points in ZMM registers across every whole lane panel of w; a ragged
// last panel of w, an inner dimension past one k-panel, and the avx and
// portable levels run the tile from microTile and the fold in Go.
//
//firal:hotpath
func WeightedSqNorms(qb, qp []float64, w, x *Packed, a, a2 []float64) {
	if w.w != gemmMR || x.w != gemmNR || w.k != x.k {
		panic("mat: WeightedSqNorms needs a left w and a right x with one inner dimension")
	}
	if len(qb) != x.rows || len(qp) != x.rows || len(a) != w.rows || len(a2) != w.rows {
		panic("mat: WeightedSqNorms length mismatch")
	}
	full := w.rows &^ (gemmMR - 1) // rows j in whole lane panels
	asm := kernel == kernelAVX512 && w.k > 0 && w.k <= gemmKC && full > 0
	for p0 := 0; p0 < x.rows; p0 += gemmNR {
		var sb, sp [gemmNR]float64
		j0 := 0
		if asm {
			sqNormsAVX512(w.k, full/gemmMR, &w.data[0], &x.data[p0*w.k], &a[0], &a2[0], &sb[0], &sp[0])
			j0 = full
		}
		for ; j0 < w.rows; j0 += gemmMR {
			sqNormsTile(&sb, &sp, w, x, j0, p0, a, a2)
		}
		n := min(gemmNR, x.rows-p0)
		copy(qb[p0:p0+n], sb[:n])
		copy(qp[p0:p0+n], sp[:n])
	}
}

// sqNormsTile adds the terms of rows [j0, j0+4) of w (those that exist)
// to the sums sb and sp of the eight rows of x from p0.
//
//firal:hotpath
func sqNormsTile(sb, sp *[gemmNR]float64, w, x *Packed, j0, p0 int, a, a2 []float64) {
	var y, acc [gemmMR * gemmNR]float64
	wrp, xrp := w.padded(), x.padded()
	for pc := 0; pc < w.k; pc += gemmKC {
		kc := min(gemmKC, w.k-pc)
		microTile(kc, w.data[pc*wrp+j0*kc:], x.data[pc*xrp+p0*kc:], &acc)
		for i, v := range acc {
			y[i] += v
		}
	}
	for r := 0; r < min(gemmMR, w.rows-j0); r++ {
		aj, a2j := a[j0+r], a2[j0+r]
		for p, v := range y[r*gemmNR : (r+1)*gemmNR] {
			v2 := v * v
			sb[p] += v2 * aj
			sp[p] += v2 * a2j
		}
	}
}

// checkPacked validates the right operand and column window of a packed
// product whose left operand has inner dimension k.
func checkPacked(dst *Dense, b *Packed, c0, k int) {
	if b.w != gemmNR {
		panic("mat: packed product needs a right operand from PackRight")
	}
	if k != b.k {
		panic("mat: packed product inner dimension mismatch")
	}
	if c0 < 0 || c0+dst.Cols > b.rows {
		panic("mat: packed product columns out of range")
	}
}

// pack copies n operand rows from r0 and kc inner indices from k0 of src
// into w-lane panels at dst: one k-panel of the layout above, the last
// lane panel zero-padded. Operand row i is src row r0+i when trans is
// false; when trans is true it is src column r0+i, so each inner index is
// a contiguous run of one src row.
//
//firal:hotpath
func pack(dst []float64, src *Dense, trans bool, r0, k0, n, kc, w int) {
	for q := 0; q < n; q += w {
		p := dst[q*kc : (q+w)*kc]
		lanes := min(w, n-q)
		if trans {
			for t := 0; t < kc; t++ {
				d := p[t*w : t*w+w]
				copy(d, src.Row(k0 + t)[r0+q:r0+q+lanes])
				clear(d[lanes:])
			}
			continue
		}
		if lanes == 4 && w == 4 {
			// A full left panel, the hot case: four rows in step, so the
			// panel is written in order.
			s0 := src.Row(r0 + q)[k0 : k0+kc]
			s1 := src.Row(r0 + q + 1)[k0 : k0+kc]
			s2 := src.Row(r0 + q + 2)[k0 : k0+kc]
			s3 := src.Row(r0 + q + 3)[k0 : k0+kc]
			for t := range s0 {
				d := p[4*t : 4*t+4 : 4*t+4]
				d[0], d[1], d[2], d[3] = s0[t], s1[t], s2[t], s3[t]
			}
			continue
		}
		if lanes == 8 && w == 8 {
			// A full right panel (ROUND's point tiles): the same, eight
			// rows in step.
			s0 := src.Row(r0 + q)[k0 : k0+kc]
			s1 := src.Row(r0 + q + 1)[k0 : k0+kc]
			s2 := src.Row(r0 + q + 2)[k0 : k0+kc]
			s3 := src.Row(r0 + q + 3)[k0 : k0+kc]
			s4 := src.Row(r0 + q + 4)[k0 : k0+kc]
			s5 := src.Row(r0 + q + 5)[k0 : k0+kc]
			s6 := src.Row(r0 + q + 6)[k0 : k0+kc]
			s7 := src.Row(r0 + q + 7)[k0 : k0+kc]
			for t := range s0 {
				d := p[8*t : 8*t+8 : 8*t+8]
				d[0], d[1], d[2], d[3] = s0[t], s1[t], s2[t], s3[t]
				d[4], d[5], d[6], d[7] = s4[t], s5[t], s6[t], s7[t]
			}
			continue
		}
		for l := 0; l < lanes; l++ {
			for t, v := range src.Row(r0 + q + l)[k0 : k0+kc] {
				p[t*w+l] = v
			}
		}
		for l := lanes; l < w; l++ {
			for t := 0; t < kc; t++ {
				p[t*w+l] = 0
			}
		}
	}
}

// macroTile runs the micro-kernel over one k-panel of depth kc: the mc rows
// of the packed left block ap against columns [j0, j1) of the packed right
// block bp, into dst with left row 0 at row i and right column j0 at
// column j. The first k-panel (first set) stores its tiles, so dst need
// not be zeroed; every later one adds onto dst.
//
//firal:hotpath
func macroTile(dst *Dense, i, j int, ap, bp []float64, kc, mc, j0, j1 int, first bool) {
	for pj := j0 - j0%gemmNR; pj < j1; pj += gemmNR {
		t0, t1 := max(j0-pj, 0), min(j1-pj, gemmNR)
		bpanel := bp[pj*kc:]
		for pi := 0; pi < mc; pi += gemmMR {
			micro4x8(kc, ap[pi*kc:], bpanel, dst, i+pi, j+pj+t0-j0, min(gemmMR, mc-pi), t0, t1, first)
		}
	}
}

// micro4x8 computes the 4×8 tile product of the left lane panel ap and the
// right lane panel bp over kc inner steps and writes its rows [0, mr) and
// columns [t0, t1) into dst, tile element (r, t) at (i+r, j+t−t0): stored
// when first is set, added onto dst otherwise. A stored tile is bit for
// bit the zeroed destination plus the tile, because a tile sum starts from
// +0 and so is never −0. At the avx512 level a full tile is written by
// the kernel itself; edge tiles and the other levels go through acc.
// Every level sums in the same order, so the bits do not depend on the
// level.
//
//firal:hotpath
func micro4x8(kc int, ap, bp []float64, dst *Dense, i, j, mr, t0, t1 int, first bool) {
	if kernel == kernelAVX512 && mr == gemmMR && t0 == 0 && t1 == gemmNR {
		d := dst.Data[i*dst.Stride+j:]
		_ = d[(gemmMR-1)*dst.Stride+gemmNR-1]
		micro4x8avx512(kc, &ap[0], &bp[0], &d[0], dst.Stride, !first)
		return
	}
	var acc [gemmMR * gemmNR]float64
	microTile(kc, ap, bp, &acc)
	for r := 0; r < mr; r++ {
		d := dst.Row(i + r)[j : j+t1-t0]
		s := acc[r*gemmNR+t0 : r*gemmNR+t1]
		if first {
			copy(d, s)
			continue
		}
		for t := range d {
			d[t] += s[t]
		}
	}
}

// microTile overwrites acc with the 4×8 tile product of the lane panels
// ap and bp over kc inner steps (row-major, tile row r at acc[8r:]), on
// the host's kernel level.
//
//firal:hotpath
func microTile(kc int, ap, bp []float64, acc *[gemmMR * gemmNR]float64) {
	switch kernel {
	case kernelAVX512:
		micro4x8avx512(kc, &ap[0], &bp[0], &acc[0], gemmNR, false)
	case kernelAVX:
		micro4x8avx(kc, &ap[0], &bp[0], &acc[0])
	default:
		micro4x8Go(kc, ap, bp, acc)
	}
}

// micro4x8Go is the portable micro-kernel: the tile's left and right four
// columns in turn, sixteen accumulators each, overwriting acc.
//
//firal:hotpath
func micro4x8Go(kc int, ap, bp []float64, acc *[gemmMR * gemmNR]float64) {
	micro4x4Go(kc, ap, bp, 0, acc)
	micro4x4Go(kc, ap, bp, 4, acc)
}

// micro4x4Go writes tile columns [h, h+4) of micro4x8Go.
//
//firal:hotpath
func micro4x4Go(kc int, ap, bp []float64, h int, acc *[gemmMR * gemmNR]float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ap = ap[:gemmMR*kc]
	bp = bp[:gemmNR*kc]
	for t := 0; t < kc; t++ {
		av := ap[gemmMR*t : gemmMR*t+4 : gemmMR*t+4]
		bv := bp[gemmNR*t+h : gemmNR*t+h+4 : gemmNR*t+h+4]
		a0 := av[0]
		a1 := av[1]
		a2 := av[2]
		a3 := av[3]
		b0 := bv[0]
		b1 := bv[1]
		b2 := bv[2]
		b3 := bv[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r := acc[h : h+4 : h+4]
	r[0], r[1], r[2], r[3] = c00, c01, c02, c03
	r = acc[gemmNR+h : gemmNR+h+4 : gemmNR+h+4]
	r[0], r[1], r[2], r[3] = c10, c11, c12, c13
	r = acc[2*gemmNR+h : 2*gemmNR+h+4 : 2*gemmNR+h+4]
	r[0], r[1], r[2], r[3] = c20, c21, c22, c23
	r = acc[3*gemmNR+h : 3*gemmNR+h+4 : 3*gemmNR+h+4]
	r[0], r[1], r[2], r[3] = c30, c31, c32, c33
}
