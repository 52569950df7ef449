package mat

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two results are bit-identical (any two NaNs
// count as equal).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// spread fills x with values over many magnitudes, so any change in the
// summation order shows up in the low bits.
func spread(rng *rand.Rand, x []float64) {
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
}

// specials are the inputs whose handling an ordering or masking slip
// changes: signed zeros, infinities and NaN.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// sprinkle overwrites about one element in eight of x with a special.
func sprinkle(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Intn(8) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// TestDotLanesKernelMatchesPortable pins the dot loop at every kernel
// level the host has to dotuGo bit for bit: every length from 0 to 70
// (all tail counts), row counts that exercise the four-row and one-row
// passes, a row stride wider than the dot, and inputs with signed zeros,
// infinities and NaN.
func TestDotLanesKernelMatchesPortable(t *testing.T) {
	forEachLevel(t, testDotLanes)
}

func testDotLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, special := range []bool{false, true} {
		for n := 0; n <= 70; n++ {
			x := make([]float64, n)
			spread(rng, x)
			for _, rows := range []int{1, 2, 3, 4, 5, 8, 9} {
				b := &Dense{Rows: rows, Cols: n, Stride: n + 3, Data: make([]float64, rows*(n+3))}
				spread(rng, b.Data)
				if special {
					sprinkle(rng, x)
					sprinkle(rng, b.Data)
				}
				out := make([]float64, rows)
				dotsLanes(out, x, b)
				for j := range out {
					want := dotuGo(x, b.Row(j))
					if !sameBits(out[j], want) {
						t.Fatalf("%s n=%d rows=%d special=%v: dot %d = %x, portable %x", kernel, n, rows, special, j,
							math.Float64bits(out[j]), math.Float64bits(want))
					}
					if got := dotu(x, b.Row(j)); !sameBits(got, want) {
						t.Fatalf("n=%d special=%v: dotu = %x, portable %x", n, special,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestAccumRowsKernelMatchesPortable pins the multi-row axpy at every
// kernel level the host has to accumRowsGo bit for bit at every column
// count from 1 to 70 and at 300, so each thirty-two-wide, sixteen-wide,
// four-wide and single-column pass and every tail runs, with zero,
// negative-zero and NaN coefficients (zeros are skipped, NaN is not) and
// rows holding signed zeros, infinities and NaN.
func TestAccumRowsKernelMatchesPortable(t *testing.T) {
	// A NaN coefficient is not a zero: it must reach y, on either path.
	nx := &Dense{Rows: 1, Cols: 17, Stride: 17, Data: make([]float64, 17)}
	ny := make([]float64, 17)
	AccumRows(ny, []float64{math.NaN()}, 1, nx)
	for i, v := range ny {
		if !math.IsNaN(v) {
			t.Fatalf("NaN coefficient skipped at column %d", i)
		}
	}
	forEachLevel(t, testAccumRows)
}

func testAccumRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ns := []int{300}
	for n := 1; n <= 70; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for _, rows := range []int{0, 1, 5, 64} {
			for _, special := range []bool{false, true} {
				const gs = 3
				x := &Dense{Rows: rows, Cols: n, Stride: n + 1, Data: make([]float64, rows*(n+1))}
				spread(rng, x.Data)
				g := make([]float64, max(1, rows*gs))
				spread(rng, g)
				if special {
					sprinkle(rng, x.Data)
					sprinkle(rng, g)
				}
				for i := 0; i < rows; i += 4 {
					g[i*gs] = 0
				}
				if rows > 2 {
					g[1*gs] = math.Copysign(0, -1)
					x.Row(2)[n/2] = math.Inf(1) // skipped zero coefficient must not make NaN
					g[2*gs] = 0
				}
				y := make([]float64, n)
				spread(rng, y)
				want := append([]float64(nil), y...)
				AccumRows(y, g, gs, x)
				accumRowsGo(want, g, gs, x)
				for i := range y {
					if !sameBits(y[i], want[i]) {
						t.Fatalf("%s n=%d rows=%d special=%v: y[%d] = %x, portable %x", kernel, n, rows, special, i,
							math.Float64bits(y[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestMicroKernelMatchesScalar pins the 4×8 GEMM micro-kernel at every
// kernel level the host has to a plain per-element loop (each element
// summed over k in ascending order from zero) bit for bit, at every panel
// depth from 0 to 300 (beyond gemmKC), with and without signed zeros,
// infinities and NaN in the packed panels.
func TestMicroKernelMatchesScalar(t *testing.T) {
	forEachLevel(t, testMicroKernel)
}

func testMicroKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for kc := 0; kc <= 300; kc++ {
		for _, special := range []bool{false, true} {
			ap := make([]float64, max(1, gemmMR*kc))
			bp := make([]float64, max(1, gemmNR*kc))
			spread(rng, ap)
			spread(rng, bp)
			if special {
				sprinkle(rng, ap)
				sprinkle(rng, bp)
			}
			var got [gemmMR * gemmNR]float64
			for i := range got {
				got[i] = math.NaN() // the kernel must overwrite every element
			}
			microTile(kc, ap, bp, &got)
			for r := 0; r < gemmMR; r++ {
				for c := 0; c < gemmNR; c++ {
					var want float64
					for k := 0; k < kc; k++ {
						want += ap[gemmMR*k+r] * bp[gemmNR*k+c]
					}
					if g := got[gemmNR*r+c]; !sameBits(g, want) {
						t.Fatalf("%s kc=%d special=%v: acc(%d,%d) = %x, scalar %x", kernel, kc, special, r, c,
							math.Float64bits(g), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestMulTransBInOrderMatchesMulTransB pins the ordered product to
// MulTransB bit for bit whenever it is asked for MulTransB's own order,
// including when the product is split into row tiles and when the
// columns of several products are batched into one call.
func TestMulTransBInOrderMatchesMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][3]int{{51, 10, 64}, {52, 10, 64}, {100, 2, 13}, {300, 9, 300}, {17, 8, 8}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := NewDense(m, k)
		spread(rng, a.Data)
		const batch = 3
		bs := NewDense(batch*n, k)
		spread(rng, bs.Data)
		blocked := UseBlocked(m, n, k)
		got := NewDense(m, batch*n)
		for lo := 0; lo < m; lo += 7 { // ragged row tiles
			hi := min(lo+7, m)
			at := &Dense{Rows: hi - lo, Cols: k, Stride: k, Data: a.Data[lo*k:]}
			gt := &Dense{Rows: hi - lo, Cols: batch * n, Stride: batch * n, Data: got.Data[lo*batch*n:]}
			MulTransBInOrder(gt, at, bs, blocked)
		}
		want := NewDense(m, n)
		for j := 0; j < batch; j++ {
			bj := &Dense{Rows: n, Cols: k, Stride: k, Data: bs.Data[j*n*k:]}
			MulTransB(want, a, bj)
			for i := 0; i < m; i++ {
				for c, v := range want.Row(i) {
					if g := got.At(i, j*n+c); !sameBits(g, v) {
						t.Fatalf("%v blocked=%v: (%d,%d) = %x, MulTransB %x", sh, blocked, i, j*n+c,
							math.Float64bits(g), math.Float64bits(v))
					}
				}
			}
		}
	}
}

// nanPayloads are NaNs that differ in sign and payload, so a kernel that
// takes a product's or a sum's NaN from the other operand than the
// portable loop does gives different bits.
var nanPayloads = []float64{
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff80000deadbeef),
	math.Float64frombits(0xfff8123400000000),
}

// sprinkleNaNs overwrites about one element in eight of x with a special
// or a NaN with a payload.
func sprinkleNaNs(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Intn(8) == 0 {
			if rng.Intn(2) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			} else {
				x[i] = nanPayloads[rng.Intn(len(nanPayloads))]
			}
		}
	}
}

// TestDotuTileMatchesDotu pins MulPackedRightInOrder's unblocked order at
// every kernel level the host has to dotu bit for bit, NaN payloads
// included at the avx512 level: every depth from 1 to 70 (every d%4 tail) and 300 (two
// k-panels, whose lanes carry over), 1 to 9 rows of a (ragged four-row
// tiles), 1 to 17 columns (ragged lane panels) from column 0 or from
// column 5 of the packed operand (a window that starts mid-panel), a
// strided a and a strided destination whose other columns must keep
// their bits. The special inputs put NaNs with different payloads on
// both sides of the products, so the operand order of every multiply
// and add shows.
func TestDotuTileMatchesDotu(t *testing.T) {
	forEachLevel(t, testDotuTile)
}

func testDotuTile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	depths := []int{300}
	for d := 1; d <= 70; d++ {
		depths = append(depths, d)
	}
	const sentinel = 0x7ff4000000000777 // a signalling NaN no kernel writes
	// Both sides are asm at avx512 (the tile and dotsLanesAVX), which fix
	// every operand order, so NaN payloads must agree too. A Go loop's
	// payloads are not pinned: the compiler may commute a multiply's or an
	// add's operands.
	exact := kernel == kernelAVX512
	for _, d := range depths {
		for _, special := range []bool{false, true} {
			const maxRows, maxCols, c0Max = 9, 17, 5
			a := &Dense{Rows: maxRows, Cols: d, Stride: d + 3, Data: make([]float64, maxRows*(d+3))}
			b := NewDense(c0Max+maxCols, d)
			spread(rng, a.Data)
			spread(rng, b.Data)
			if special {
				sprinkleNaNs(rng, a.Data)
				sprinkleNaNs(rng, b.Data)
			}
			var pb Packed
			pb.PackRight(b)
			for rows := 1; rows <= maxRows; rows++ {
				ar := a.RowSlice(0, rows)
				for cols := 1; cols <= maxCols; cols++ {
					for _, c0 := range []int{0, c0Max} {
						dst := &Dense{Rows: rows, Cols: cols, Stride: cols + 2, Data: make([]float64, rows*(cols+2))}
						for i := range dst.Data {
							dst.Data[i] = math.Float64frombits(sentinel)
						}
						MulPackedRightInOrder(dst, ar, &pb, c0, false)
						for i := 0; i < rows; i++ {
							row := dst.Data[i*dst.Stride : (i+1)*dst.Stride]
							for j, got := range row {
								if j >= cols {
									if math.Float64bits(got) != sentinel {
										t.Fatalf("%s d=%d rows=%d cols=%d c0=%d: column %d of row %d outside dst changed", kernel, d, rows, cols, c0, j, i)
									}
									continue
								}
								want := dotu(a.Row(i), b.Row(c0+j))
								if !sameBits(got, want) || exact && math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s d=%d rows=%d cols=%d c0=%d special=%v: (%d,%d) = %x, dotu %x", kernel, d, rows, cols, c0, special, i, j,
										math.Float64bits(got), math.Float64bits(want))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestWidenKernelMatchesPortable pins WidenFloat32 at every kernel level
// the host has to widenGo bit for bit: signed zeros, float32 subnormals,
// infinities, quiet and signalling NaNs with payloads and random bit
// patterns, at every length from 0 to 70 (every sixteen-, eight- and
// one-float tail) and 300, from a source that starts 8-byte aligned or
// only 4-byte aligned (as a shard row does). The element past the end
// must keep its bits.
func TestWidenKernelMatchesPortable(t *testing.T) {
	forEachLevel(t, testWiden)
}

func testWiden(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	special32 := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x007fffff, 0x80000001, 0x80400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0x7fc12345, 0xffc00001, // quiet NaNs
		0x7f800001, 0x7fa00000, 0xff800123, 0x7fbfffff, // signalling NaNs
		0x00800000, 0x7f7fffff, 0x3f800000, // smallest normal, largest, 1
	}
	lengths := []int{300}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	const sentinel = 0x7ff4000000000777
	for _, n := range lengths {
		for _, off := range []int{0, 4} {
			buf := make([]byte, off+4*n)
			for i := 0; i < n; i++ {
				v := rng.Uint32()
				if rng.Intn(2) == 0 {
					v = special32[rng.Intn(len(special32))]
				}
				buf[off+4*i] = byte(v)
				buf[off+4*i+1] = byte(v >> 8)
				buf[off+4*i+2] = byte(v >> 16)
				buf[off+4*i+3] = byte(v >> 24)
			}
			src := buf[off:]
			got := make([]float64, n+1)
			got[n] = math.Float64frombits(sentinel)
			want := make([]float64, n)
			WidenFloat32(got[:n], src)
			widenGo(want, src)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d offset=%d: element %d = %x, portable %x", kernel, n, off, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if math.Float64bits(got[n]) != sentinel {
				t.Fatalf("%s n=%d offset=%d: wrote past the end", kernel, n, off)
			}
		}
	}
}
