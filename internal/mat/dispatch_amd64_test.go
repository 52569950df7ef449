package mat

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// forEachLevel runs f as one subtest per kernel level, portable first,
// with kernel set to that level. A level the host lacks is skipped by
// name, so a run on a host without AVX-512 shows the ZMM paths as
// skipped instead of passing them silently.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	host := detectKernel()
	defer func() { kernel = host }()
	for l := kernelPortable; l <= kernelAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			if l > host {
				t.Skipf("host kernel level is %s", host)
			}
			kernel = l
			defer func() { kernel = host }()
			f(t)
		})
	}
}

// atLevel returns f's result computed at kernel level l.
func atLevel[T any](l kernelLevel, f func() T) T {
	prev := kernel
	defer func() { kernel = prev }()
	kernel = l
	return f()
}

// TestAsmDispatchBitIdentical runs every product that reaches the
// assembly kernels at each kernel level the host has and requires the
// bits of the portable loops over ragged shapes on both the blocked and
// the reference paths, with and without signed zeros, infinities and NaN
// in the operands.
func TestAsmDispatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// {m, n, k}: the blocked path needs m ≥ 16, n ≥ 8, k ≥ 8 and
	// m·n·k ≥ 2^15; the rest run the reference row kernels.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}, {70, 13, 301}, {130, 67, 65}, {257, 31, 9}, {9, 300, 5}}
	var cases []dispatchCase
	for _, sh := range shapes {
		for _, special := range []bool{false, true} {
			m, n, k := sh[0], sh[1], sh[2]
			a, b := randDense(rng, m, k), randDense(rng, k, n)
			bt, at := randDense(rng, n, k), randDense(rng, k, m)
			x, xm := make([]float64, k), make([]float64, m*k)
			spread(rng, x)
			spread(rng, xm)
			w := make([]float64, m)
			spread(rng, w)
			w[0] = 0
			if special {
				for _, d := range [][]float64{a.Data, b.Data, bt.Data, at.Data, x, w} {
					sprinkle(rng, d)
				}
			}
			rowsB := &Dense{Rows: m, Cols: k, Stride: k, Data: xm}
			run := func() [][]float64 {
				inOrder := NewDense(m, n)
				MulTransBInOrder(inOrder, a, bt, UseBlocked(m, n, k))
				var pa, pb Packed
				pa.PackLeft(a)
				pb.PackRight(bt)
				packed := NewDense(m, n)
				MulPacked(packed, &pa, &pb, 0)
				return [][]float64{
					packed.Data,
					Mul(nil, a, b).Data,
					MulTransA(nil, at, b).Data,
					MulTransB(nil, a, bt).Data,
					inOrder.Data,
					WeightedGram(nil, a, w).Data,
					WeightedGram(nil, a, nil).Data,
					MatVec(nil, a, x),
					RowDots(nil, a, rowsB),
				}
			}
			cases = append(cases, dispatchCase{sh, special, run, atLevel(kernelPortable, run)})
		}
	}
	names := []string{"MulPacked", "Mul", "MulTransA", "MulTransB", "MulTransBInOrder", "WeightedGram", "WeightedGram(unit)", "MatVec", "RowDots"}
	forEachLevel(t, func(t *testing.T) {
		for _, c := range cases {
			got := c.run()
			for p := range got {
				for i := range got[p] {
					if !sameBits(got[p][i], c.portable[p][i]) {
						t.Fatalf("%s %v special=%v: element %d = %x at %s, %x portable", names[p], c.shape, c.special, i,
							math.Float64bits(got[p][i]), kernel, math.Float64bits(c.portable[p][i]))
					}
				}
			}
		}
	})
}

// dispatchCase is one operand set of TestAsmDispatchBitIdentical: run
// computes its products, portable holds their bits at the portable level.
type dispatchCase struct {
	shape    [3]int
	special  bool
	run      func() [][]float64
	portable [][]float64
}

// TestGramRank4KernelMatchesPortable pins WeightedGramAddLower's rank-4
// update at every kernel level the host has to its Go loop bit for bit:
// every dimension from 1 to 70, so triangle rows end in every partial
// chunk (1–3 columns past a YMM multiple, 1–7 past a ZMM one), point
// counts 0…9 (every count mod 4, so the single-point tail runs too), a
// dst stride wider than d, and weights that are nil (unit), negative, or
// zero across a whole four-point group. The strict upper triangle and
// the column past d must keep their bits. In the fourth weight set the
// zero-weight group (one weight −0) holds ±Inf and NaN, and the other
// points and dst hold ±0: the group must stay skipped, so no NaN or Inf
// reaches dst, and signed zeros keep their bits.
func TestGramRank4KernelMatchesPortable(t *testing.T) {
	forEachLevel(t, testGramRank4)
}

func testGramRank4(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for d := 1; d <= 70; d++ {
		before := make([]float64, d*(d+1))
		spread(rng, before)
		got := &Dense{Rows: d, Cols: d, Stride: d + 1, Data: make([]float64, len(before))}
		want := &Dense{Rows: d, Cols: d, Stride: d + 1, Data: make([]float64, len(before))}
		signed := make([]float64, len(before))
		copy(signed, before)
		zeros(rng, signed)
		for rows := 0; rows <= 9; rows++ {
			x := &Dense{Rows: rows, Cols: d, Stride: d + 2, Data: make([]float64, max(1, rows*(d+2)))}
			for wk := 0; wk < 4; wk++ {
				spread(rng, x.Data)
				var w []float64
				if wk > 0 {
					w = make([]float64, rows)
					spread(rng, w)
					for i := range w {
						w[i] = -math.Abs(w[i])
						if wk%2 == 1 && i < 4 {
							w[i] = 0 // the first group is skipped
						}
					}
				}
				start := before
				if wk == 3 {
					start = signed
					if rows > 0 {
						w[0] = math.Copysign(0, -1)
					}
					for i := 0; i < rows; i++ {
						xi := x.Row(i)
						if i >= 4 {
							zeros(rng, xi)
							continue
						}
						for c := range xi {
							xi[c] = specials[2+(i+c)%3] // ±Inf, NaN
						}
					}
				}
				copy(got.Data, start)
				copy(want.Data, start)
				WeightedGramAddLower(got, x, w)
				atLevel(kernelPortable, func() *Dense { WeightedGramAddLower(want, x, w); return want })
				for k := range got.Data {
					if !sameBits(got.Data[k], want.Data[k]) {
						t.Fatalf("%s d=%d rows=%d weights=%d: dst[%d] = %x, portable %x", kernel, d, rows, wk, k,
							math.Float64bits(got.Data[k]), math.Float64bits(want.Data[k]))
					}
				}
				for r := 0; r < d; r++ {
					row := got.Data[r*got.Stride : (r+1)*got.Stride]
					if wk == 3 {
						for c, v := range row[:r+1] {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s d=%d rows=%d: dst[%d,%d] = %g, the zero-weight group was not skipped", kernel, d, rows, r, c, v)
							}
						}
					}
					for c := r + 1; c < len(row); c++ {
						if !sameBits(row[c], start[r*got.Stride+c]) {
							t.Fatalf("%s d=%d rows=%d weights=%d: dst[%d,%d] above the triangle changed", kernel, d, rows, wk, r, c)
						}
					}
				}
			}
		}
	}
}

// zeros overwrites about one element in four of x with +0 or −0.
func zeros(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = specials[rng.Intn(2)]
		}
	}
}

// TestHasAVXMatchesCPUInfo checks the CPUID/XGETBV probe against the
// kernel's view of the CPU: on linux the "avx" and "fma" flags of
// /proc/cpuinfo are both listed exactly when the CPU has AVX and FMA and
// the kernel enabled the YMM state. A host with AVX but no FMA must run
// the portable level, because every asm level fuses its multiply-adds.
func TestHasAVXMatchesCPUInfo(t *testing.T) {
	flags, err := cpuinfoFlags()
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	if got, want := hasAVX(), flags["avx"] && flags["fma"]; got != want {
		t.Fatalf("hasAVX() = %v, /proc/cpuinfo avx flag = %v, fma flag = %v", got, flags["avx"], flags["fma"])
	}
	if kernel != detectKernel() {
		t.Fatalf("kernel = %s, detected %s", kernel, detectKernel())
	}
	if !flags["fma"] && kernel != kernelPortable {
		t.Fatalf("kernel level %s on a host without FMA", kernel)
	}
	t.Logf("kernel level: %s, fma: %v", KernelLevel(), flags["fma"])
}

// TestHasAVX512MatchesCPUInfo checks the AVX-512 probe the same way: on
// linux the "avx512f" flag is listed, with "avx" and "fma", exactly when
// the CPU has AVX-512F, AVX and FMA and the kernel enabled the opmask and
// ZMM state, and the host then runs the avx512 level.
func TestHasAVX512MatchesCPUInfo(t *testing.T) {
	flags, err := cpuinfoFlags()
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	if got, want := hasAVX512(), flags["avx512f"] && flags["avx"] && flags["fma"]; got != want {
		t.Fatalf("hasAVX512() = %v, /proc/cpuinfo avx512f flag = %v", got, want)
	}
	if want := hasAVX512(); (KernelLevel() == "avx512") != want {
		t.Fatalf("KernelLevel() = %q with hasAVX512() = %v", KernelLevel(), want)
	}
}

// cpuinfoFlags returns the flag set of the first processor listed in
// /proc/cpuinfo.
func cpuinfoFlags() (map[string]bool, error) {
	if runtime.GOOS != "linux" {
		return nil, fmt.Errorf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		flags := make(map[string]bool)
		for _, f := range strings.Fields(val) {
			flags[f] = true
		}
		return flags, nil
	}
	return nil, fmt.Errorf("no flags line in /proc/cpuinfo")
}
