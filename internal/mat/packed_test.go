package mat

import (
	"math"
	"math/rand"
	"testing"
)

// mulPacked sets dst to a·b_cᵀ, where a is a packed left operand with
// dst.Rows rows and b_c is rows [c0, c0+dst.Cols) of the matrix packed in
// the right operand b. Each element is bit for bit the one
// MulTransBInOrder(dst, a, b_c, true) computes. It runs on the calling
// goroutine. dst must not alias either operand's matrix. MulPackedRight
// is the same product with an unpacked left operand.
func mulPacked(dst *Dense, a, b *Packed, c0 int) {
	checkPacked(dst, b, c0, a.k)
	if a.w != gemmMR || a.rows != dst.Rows {
		panic("mat: mulPacked needs a left operand with the destination's rows")
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

// TestPackedMatchesMulTransBInOrder is the packed-operand property: at
// every kernel level the host has, one right operand packed once — a
// stack of c class blocks of d rows each, as ROUND stacks its W_kᵀ —
// serves products with every class's row window, with windows that start
// inside a lane panel and cross class boundaries, and with ragged left
// tiles (1 to 70 rows, row stride wider than d), through both mulPacked
// and MulPackedRight, and each product has the bits of
// MulTransBInOrder(…, true) on the same rows. d = 256 fills one k-panel
// exactly and d = 300 spans two.
func TestPackedMatchesMulTransBInOrder(t *testing.T) {
	forEachLevel(t, testPacked)
}

func testPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const c = 3
	for _, d := range []int{1, 7, 13, 37, 64, 65, 256, 300} {
		for _, special := range []bool{false, true} {
			stack := randDense(rng, c*d, d)
			x := &Dense{Rows: 70, Cols: d, Stride: d + 3, Data: make([]float64, 70*(d+3))}
			spread(rng, x.Data)
			if special {
				sprinkle(rng, stack.Data)
				sprinkle(rng, x.Data)
			}
			var pb, pa Packed
			pb.PackRight(stack)
			windows := [][2]int{{d / 2, min(d/2+d+1, c*d)}, {c*d - 1, c * d}}
			for k := 0; k < c; k++ {
				windows = append(windows, [2]int{k * d, (k + 1) * d})
			}
			for _, rows := range []int{1, 3, 4, 5, 13, 64, 65, 70} {
				xt := &Dense{Rows: rows, Cols: d, Stride: x.Stride, Data: x.Data}
				pa.PackLeft(xt)
				for _, win := range windows {
					c0, c1 := win[0], win[1]
					bw := &Dense{Rows: c1 - c0, Cols: d, Stride: d, Data: stack.Data[c0*d:]}
					want := NewDense(rows, c1-c0)
					MulTransBInOrder(want, xt, bw, true)
					got := NewDense(rows, c1-c0)
					spread(rng, got.Data) // the products overwrite dst
					mulPacked(got, &pa, &pb, c0)
					right := NewDense(rows, c1-c0)
					spread(rng, right.Data)
					MulPackedRight(right, xt, &pb, c0)
					for i := range want.Data {
						if !sameBits(got.Data[i], want.Data[i]) || !sameBits(right.Data[i], want.Data[i]) {
							t.Fatalf("%s d=%d rows=%d cols [%d,%d) special=%v: element %d = %x (MulPacked), %x (MulPackedRight), want %x",
								kernel, d, rows, c0, c1, special, i, math.Float64bits(got.Data[i]),
								math.Float64bits(right.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestPackedZeroAllocWarm pins the packed products at 0 allocs/op once
// their storage is warm: repacking an operand of the same shape reuses it.
func TestPackedZeroAllocWarm(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(22))
	stack := randDense(rng, 3*64, 64)
	x := randDense(rng, 64, 64)
	dst := NewDense(64, 64)
	var pa, pb Packed
	run := func() {
		pb.PackRight(stack)
		pa.PackLeft(x)
		mulPacked(dst, &pa, &pb, 64)
		MulPackedRight(dst, x, &pb, 128)
		MulPackedRightInOrder(dst, x, &pb, 61, false)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("packed products: %v allocs/op, want 0", allocs)
	}
}
