package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestRotKernelMatchesPortable pins tql's rotation at every kernel level
// the host has to rotGo bit for bit: every length from 0 to 80 (each
// eight-wide, four-wide and single-column pass and every tail), with and
// without signed zeros, infinities and NaN in the rows and the angle.
func TestRotKernelMatchesPortable(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for n := 0; n <= 80; n++ {
			for _, special := range []bool{false, true} {
				x, y := make([]float64, n), make([]float64, n)
				spread(rng, x)
				spread(rng, y)
				cs := []float64{rng.NormFloat64(), rng.NormFloat64()}
				if special {
					sprinkle(rng, x)
					sprinkle(rng, y)
					sprinkle(rng, cs)
				}
				wx, wy := append([]float64(nil), x...), append([]float64(nil), y...)
				rot(x, y, cs[0], cs[1])
				rotGo(wx, wy, cs[0], cs[1])
				for k := range x {
					if !sameBits(x[k], wx[k]) || !sameBits(y[k], wy[k]) {
						t.Fatalf("%s n=%d special=%v: element %d = (%x, %x), portable (%x, %x)", kernel, n, special, k,
							math.Float64bits(x[k]), math.Float64bits(y[k]), math.Float64bits(wx[k]), math.Float64bits(wy[k]))
					}
				}
			}
		}
	})
}

// TestSymRank2KernelMatchesPortable pins tred2's symmetric rank-2 update
// at every kernel level the host has to symRank2Go bit for bit: every
// order from 1 to 80, a row stride wider than the block, and signed
// zeros, infinities and NaN in the block and the vectors. On finite input
// the update keeps a symmetric block exactly symmetric.
func TestSymRank2KernelMatchesPortable(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for n := 1; n <= 80; n++ {
			for _, special := range []bool{false, true} {
				a := &Dense{Rows: n, Cols: n, Stride: n + 3, Data: make([]float64, n*(n+3))}
				spread(rng, a.Data)
				for j := 0; j < n; j++ {
					for k := 0; k < j; k++ {
						a.Set(k, j, a.At(j, k))
					}
				}
				u, p := make([]float64, n), make([]float64, n)
				spread(rng, u)
				spread(rng, p)
				if special {
					sprinkle(rng, a.Data)
					sprinkle(rng, u)
					sprinkle(rng, p)
				}
				want := &Dense{Rows: n, Cols: n, Stride: n + 3, Data: append([]float64(nil), a.Data...)}
				symRank2(a, u, p)
				symRank2Go(want, u, p)
				for i := range a.Data {
					if !sameBits(a.Data[i], want.Data[i]) {
						t.Fatalf("%s n=%d special=%v: a[%d] = %x, portable %x", kernel, n, special, i,
							math.Float64bits(a.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
				if special {
					continue
				}
				for j := 0; j < n; j++ {
					for k := 0; k < j; k++ {
						if math.Float64bits(a.At(j, k)) != math.Float64bits(a.At(k, j)) {
							t.Fatalf("%s n=%d: a(%d,%d) = %g but a(%d,%d) = %g", kernel, n, j, k, a.At(j, k), k, j, a.At(k, j))
						}
					}
				}
			}
		}
	})
}

// TestRank1SubKernelMatchesPortable pins the back-accumulation's rank-1
// update at every kernel level the host has to rank1SubGo bit for bit:
// every column count from 1 to 80, row counts 0, 1, 7 and n, a strided
// coefficient column, and signed zeros, infinities and NaN (a zero
// coefficient is not skipped: −0 − (−0·x) is +0).
func TestRank1SubKernelMatchesPortable(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for n := 1; n <= 80; n++ {
			for _, rows := range []int{0, 1, 7, n} {
				for _, special := range []bool{false, true} {
					const cs = 5
					a := &Dense{Rows: rows, Cols: n, Stride: n + 2, Data: make([]float64, max(1, rows*(n+2)))}
					spread(rng, a.Data)
					c, x := make([]float64, max(1, rows*cs)), make([]float64, n)
					spread(rng, c)
					spread(rng, x)
					if special {
						sprinkle(rng, a.Data)
						sprinkle(rng, c)
						sprinkle(rng, x)
					}
					want := &Dense{Rows: rows, Cols: n, Stride: n + 2, Data: append([]float64(nil), a.Data...)}
					rank1Sub(a, c, cs, x)
					rank1SubGo(want, c, cs, x)
					for i := range a.Data {
						if !sameBits(a.Data[i], want.Data[i]) {
							t.Fatalf("%s n=%d rows=%d special=%v: a[%d] = %x, portable %x", kernel, n, rows, special, i,
								math.Float64bits(a.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	})
}

// TestSymEigLevelsMatchPortable runs the whole eigensolver at every kernel
// level the host has and requires the portable level's bits — every
// eigenvalue and eigenvector element of SymEig and every eigenvalue of
// SymEigvals — at every order from 1 to 80, on random, rank-deficient,
// tied, signed-zero and low-rank PSD matrices. The portable level runs
// first and records the bits the other levels must match.
func TestSymEigLevelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var inputs []*Dense
	for n := 1; n <= 80; n++ {
		inputs = append(inputs, eigFixtures(rng, n)...)
		s := randSym(rng, n)
		for i := range s.Data {
			if rng.Intn(4) == 0 {
				s.Data[i] = math.Copysign(0, -1)
			}
		}
		r := randDense(rng, n, max(1, n/3))
		inputs = append(inputs, s, MulTransB(nil, r, r))
	}
	var want [][]float64
	forEachLevel(t, func(t *testing.T) {
		for i, a := range inputs {
			vals, vecs, err := SymEig(a)
			if err != nil {
				t.Fatalf("%s input %d (n=%d): %v", kernel, i, a.Rows, err)
			}
			only, err := SymEigvals(a)
			if err != nil {
				t.Fatalf("%s input %d (n=%d): %v", kernel, i, a.Rows, err)
			}
			got := append(append(append([]float64(nil), vals...), vecs.Data...), only...)
			if kernel == kernelPortable {
				want = append(want, got)
				continue
			}
			if !sameBitsVec(got, want[i]) {
				t.Fatalf("%s input %d (n=%d): eigenpairs differ from the portable level", kernel, i, a.Rows)
			}
		}
	})
}

// TestWeightedSqNormsMatchesMulPacked pins the fused ROUND norm kernel at
// every kernel level the host has to its unfused definition bit for bit:
// y = x·wᵀ from mulPacked with the operands packed the other way round,
// then per row of y the two weighted sums over ascending j, one math.FMA
// per term. It covers 1 to 70 points (every eight-point tail, so both
// the sixteen-point tiles and a lone last eight-point one), w row counts
// with one, two, three and sixteen whole lane panels (so the 8×16 tile,
// the 4×16 tile of a lone last panel, or both) and a ragged last lane
// panel, inner dimensions from 1 to past one k-panel, and signed zeros,
// infinities and NaN in the operands.
func TestWeightedSqNormsMatchesMulPacked(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		for _, k := range []int{1, 3, 8, 32, 64, 257, 300} {
			for _, wr := range []int{1, 4, 7, 8, 13, 64, 66} {
				for _, xr := range []int{1, 5, 8, 9, 64, 70} {
					for _, special := range []bool{false, true} {
						x, w := randDense(rng, xr, k), randDense(rng, wr, k)
						a, a2 := make([]float64, wr), make([]float64, wr)
						for j := range a {
							a[j] = 1 / (1 + rng.Float64())
							a2[j] = a[j] * a[j]
						}
						if special {
							sprinkle(rng, x.Data)
							sprinkle(rng, w.Data)
						}
						var wl, xr8, xl, wr8 Packed
						wl.PackLeft(w)
						xr8.PackRight(x)
						qb, qp := make([]float64, xr), make([]float64, xr)
						WeightedSqNorms(qb, qp, &wl, &xr8, a, a2)

						xl.PackLeft(x)
						wr8.PackRight(w)
						y := NewDense(xr, wr)
						mulPacked(y, &xl, &wr8, 0)
						for p := 0; p < xr; p++ {
							var sb, sp float64
							for j, v := range y.Row(p) {
								v2 := v * v
								sb = math.FMA(v2, a[j], sb)
								sp = math.FMA(v2, a2[j], sp)
							}
							if !sameBits(qb[p], sb) || !sameBits(qp[p], sp) {
								t.Fatalf("%s k=%d w rows=%d x rows=%d special=%v: point %d = (%x, %x), unfused (%x, %x)",
									kernel, k, wr, xr, special, p, math.Float64bits(qb[p]), math.Float64bits(qp[p]),
									math.Float64bits(sb), math.Float64bits(sp))
							}
						}
					}
				}
			}
		}
	})
}

// TestWeightedSqNormsZeroAlloc pins the fused norm kernel, with its
// operands packed into warm storage, at 0 allocs/op.
func TestWeightedSqNormsZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(36))
	w, x := randDense(rng, 66, 64), randDense(rng, 64, 64)
	a, a2 := make([]float64, 66), make([]float64, 66)
	qb, qp := make([]float64, 64), make([]float64, 64)
	var wl, xp Packed
	run := func() {
		wl.PackLeft(w)
		xp.PackRight(x)
		WeightedSqNorms(qb, qp, &wl, &xp, a, a2)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("fused norms: %v allocs/op, want 0", allocs)
	}
}
