package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackedMatchesMulTransBInOrder is the packed-operand property: at
// every kernel level the host has, one right operand packed once — a
// stack of c class blocks of d rows each, as ROUND stacks its W_kᵀ —
// serves products with every class's row window, with windows that start
// inside a lane panel and cross class boundaries, and with ragged left
// tiles (1 to 70 rows, row stride wider than d), through both MulPacked
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
					MulPacked(got, &pa, &pb, c0)
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
		MulPacked(dst, &pa, &pb, 64)
		MulPackedRight(dst, x, &pb, 128)
		MulPackedRightInOrder(dst, x, &pb, 61, false)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("packed products: %v allocs/op, want 0", allocs)
	}
}
