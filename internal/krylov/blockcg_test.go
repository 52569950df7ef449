package krylov

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// blockTestSystem builds an SPD matrix and an n×s RHS engineered so CG
// converges at genuinely different iteration counts per column: the
// matrix is block-diagonal with s decoupled tridiagonal sub-blocks whose
// conditioning worsens with the block index, and RHS column j is
// supported on sub-block j only — its Krylov trajectory never leaves its
// sub-block, so later columns need strictly more iterations and the
// lockstep masking actually engages.
func blockTestSystem(n, s int, seed int64) (*mat.Dense, *mat.Dense) {
	rng := rand.New(rand.NewSource(seed))
	m := n / s
	spd := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		blk := i / m
		if blk >= s {
			blk = s - 1
		}
		// tridiag(−1, c, −1): condition worsens as c → 2.
		c := 2 + 1/float64(blk+1) + 0.01*rng.Float64()
		spd.Set(i, i, c)
		if i+1 < n && (i+1)/m == i/m {
			spd.Set(i, i+1, -1)
			spd.Set(i+1, i, -1)
		}
	}
	b := mat.NewDense(n, s)
	for j := 0; j < s; j++ {
		lo := j * m
		for i := lo; i < lo+m && i < n; i++ {
			b.Set(i, j, 1+0.2*rng.NormFloat64())
		}
	}
	return spd, b
}

// transpose copies an n×s matrix into a fresh s×n transposed block.
func transpose(m *mat.Dense) *mat.Dense {
	t := mat.NewDense(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		m.Col(t.Row(j), j)
	}
	return t
}

// perColumnBlockOp lifts a per-vector Op to a BlockOp by applying it row
// by row — the reference lifting under which lockstep block CG performs
// exactly the arithmetic of s independent solves.
func perColumnBlockOp(op Op) BlockOp {
	return func(dst, v *mat.Dense) {
		for j := 0; j < v.Rows; j++ {
			op(dst.Row(j), v.Row(j))
		}
	}
}

// TestSolveBlockIntoMatchesPerColumnOracle pins the lockstep contract:
// for ragged probe counts, with and without preconditioning, the block
// solver's solutions, iteration counts, convergence flags, residuals, and
// recorded residual histories are IDENTICAL (not just close) to the
// per-column SolveColumnsInto oracle, including when columns converge at
// different iteration counts.
func TestSolveBlockIntoMatchesPerColumnOracle(t *testing.T) {
	const n = 48
	for _, s := range []int{1, 2, 3, 5, 8, 11} {
		spd, b := blockTestSystem(n, s, int64(100+s))
		op := func(dst, v []float64) { mat.MatVec(dst, spd, v) }
		diag := func(dst, v []float64) {
			for i := range dst {
				dst[i] = v[i] / spd.At(i, i)
			}
		}
		for _, tc := range []struct {
			withPrec bool
			tol      float64
		}{{false, 1e-3}, {false, 1e-9}, {true, 1e-3}, {true, 1e-9}} {
			withPrec := tc.withPrec
			opt := Options{Tol: tc.tol, MaxIter: 300, RecordResiduals: true, Workspace: mat.NewWorkspace()}
			var prec Op
			var bprec BlockOp
			if withPrec {
				prec = diag
				bprec = perColumnBlockOp(diag)
			}

			xRef := mat.NewDense(n, s)
			ref := SolveColumnsInto(context.Background(), op, prec, b, xRef, nil, opt)

			bT := transpose(b)
			xT := mat.NewDense(s, n)
			got := SolveBlockInto(context.Background(), perColumnBlockOp(op), bprec, bT, xT, nil, opt)

			iters := map[int]bool{}
			for j := 0; j < s; j++ {
				iters[ref[j].Iterations] = true
				if got[j].Iterations != ref[j].Iterations ||
					got[j].Converged != ref[j].Converged ||
					got[j].RelResidual != ref[j].RelResidual {
					t.Fatalf("s=%d prec=%v column %d: block %+v, oracle %+v",
						s, withPrec, j, got[j], ref[j])
				}
				if len(got[j].Residuals) != len(ref[j].Residuals) {
					t.Fatalf("s=%d prec=%v column %d: residual history %d entries, oracle %d",
						s, withPrec, j, len(got[j].Residuals), len(ref[j].Residuals))
				}
				for k := range ref[j].Residuals {
					if got[j].Residuals[k] != ref[j].Residuals[k] {
						t.Fatalf("s=%d prec=%v column %d residual %d: %g vs %g",
							s, withPrec, j, k, got[j].Residuals[k], ref[j].Residuals[k])
					}
				}
				xj := xT.Row(j)
				for i := 0; i < n; i++ {
					if xj[i] != xRef.At(i, j) {
						t.Fatalf("s=%d prec=%v x[%d,%d]: block %g, oracle %g",
							s, withPrec, i, j, xj[i], xRef.At(i, j))
					}
				}
			}
			// At the paper-style loose tolerance the per-block conditioning
			// dominates, so mid-size blocks must converge at different
			// counts — the masking path is genuinely exercised.
			if !withPrec && tc.tol == 1e-3 && s >= 3 && s <= 5 && len(iters) < 2 {
				t.Fatalf("s=%d: all columns converged in the same iteration count %v — masking untested", s, ref)
			}
		}
	}
}

// TestSolveBlockIntoZeroRHSColumn pins the degenerate-column path: a zero
// RHS column converges immediately with a zeroed iterate while the rest
// of the block keeps iterating.
func TestSolveBlockIntoZeroRHSColumn(t *testing.T) {
	const n, s = 20, 3
	spd, b := blockTestSystem(n, s, 7)
	for i := 0; i < n; i++ {
		b.Set(i, 1, 0)
	}
	bT := transpose(b)
	xT := mat.NewDense(s, n)
	mat.Fill(xT.Row(1), 3) // garbage in x must be zeroed
	op := perColumnBlockOp(func(dst, v []float64) { mat.MatVec(dst, spd, v) })
	res := SolveBlockInto(context.Background(), op, nil, bT, xT, nil, Options{Tol: 1e-10, MaxIter: 200})
	if !res[1].Converged || res[1].Iterations != 0 {
		t.Fatalf("zero column: %+v, want immediate convergence", res[1])
	}
	for i, v := range xT.Row(1) {
		if v != 0 {
			t.Fatalf("zero column iterate x[%d] = %g, want 0", i, v)
		}
	}
	if !res[0].Converged || !res[2].Converged {
		t.Fatalf("non-zero columns failed to converge: %+v", res)
	}
}

// TestSolveBlockIntoApplicationCount pins the operator traffic of a
// solve: starting from X = 0 costs no application, so a solve applies A
// exactly max_j Iterations_j times — one pool sweep per lockstep
// iteration and none more — and not at all when every column of B is
// zero.
func TestSolveBlockIntoApplicationCount(t *testing.T) {
	const n = 48
	for _, s := range []int{1, 3, 5} {
		spd, b := blockTestSystem(n, s, int64(200+s))
		matvec := func(dst, v []float64) { mat.MatVec(dst, spd, v) }
		diag := perColumnBlockOp(func(dst, v []float64) {
			for i := range dst {
				dst[i] = v[i] / spd.At(i, i)
			}
		})
		applications := 0
		counting := BlockOp(func(dst, v *mat.Dense) {
			applications++
			perColumnBlockOp(matvec)(dst, v)
		})
		for _, prec := range []BlockOp{nil, diag} {
			for _, tol := range []float64{1e-3, 1e-9} {
				opt := Options{Tol: tol, MaxIter: 300, Workspace: mat.NewWorkspace()}
				applications = 0
				res := SolveBlockInto(context.Background(), counting, prec, transpose(b), mat.NewDense(s, n), nil, opt)
				want := 0
				for _, r := range res {
					want = max(want, r.Iterations)
				}
				if want == 0 || applications != want {
					t.Fatalf("s=%d prec=%v tol=%g: %d applications, max iterations %d", s, prec != nil, tol, applications, want)
				}

				applications = 0
				res = SolveBlockInto(context.Background(), counting, prec, mat.NewDense(s, n), mat.NewDense(s, n), nil, opt)
				if applications != 0 {
					t.Fatalf("s=%d prec=%v tol=%g: zero B applied A %d times", s, prec != nil, tol, applications)
				}
				for j, r := range res {
					if !r.Converged || r.Iterations != 0 {
						t.Fatalf("s=%d zero column %d: %+v, want immediate convergence", s, j, r)
					}
				}
			}
		}
	}
}

// TestSolveBlockIntoOverwritesX pins that x is output only: a solve into
// a block of garbage — NaN, ±Inf, −0 and arbitrary values — returns the
// bits and results of the same solve into a zeroed block.
func TestSolveBlockIntoOverwritesX(t *testing.T) {
	const n, s = 48, 4
	spd, b := blockTestSystem(n, s, 11)
	op := perColumnBlockOp(func(dst, v []float64) { mat.MatVec(dst, spd, v) })
	bT := transpose(b)
	opt := Options{Tol: 1e-6, MaxIter: 300, RecordResiduals: true, Workspace: mat.NewWorkspace()}

	clean := mat.NewDense(s, n)
	want := SolveBlockInto(context.Background(), op, nil, bT, clean, nil, opt)

	garbage := mat.NewDense(s, n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -7}
	for i := range garbage.Data {
		garbage.Data[i] = specials[i%len(specials)]
	}
	got := SolveBlockInto(context.Background(), op, nil, bT, garbage, nil, opt)
	for j := range want {
		if got[j].Iterations != want[j].Iterations || got[j].Converged != want[j].Converged ||
			got[j].RelResidual != want[j].RelResidual || len(got[j].Residuals) != len(want[j].Residuals) {
			t.Fatalf("column %d: garbage x %+v, zeroed x %+v", j, got[j], want[j])
		}
		for k := range want[j].Residuals {
			if got[j].Residuals[k] != want[j].Residuals[k] {
				t.Fatalf("column %d residual %d: %g vs %g", j, k, got[j].Residuals[k], want[j].Residuals[k])
			}
		}
	}
	for i := range clean.Data {
		if math.Float64bits(garbage.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("x[%d] = %x from garbage, %x from zero", i,
				math.Float64bits(garbage.Data[i]), math.Float64bits(clean.Data[i]))
		}
	}
}

// TestSolveBlockIntoCancellation pins the mid-block cancellation
// contract: when the context dies partway through the lockstep sweep, the
// still-active columns report the context error and x holds their best
// iterates — exactly the iterate a per-column solve capped at the same
// iteration count produces — while already-converged columns keep their
// finished results.
func TestSolveBlockIntoCancellation(t *testing.T) {
	const n, s = 48, 4
	spd, b := blockTestSystem(n, s, 9)
	matvec := func(dst, v []float64) { mat.MatVec(dst, spd, v) }
	// Loose tolerance: per-block conditioning staggers the convergence, so
	// the fastest column finishes several lockstep iterations before the
	// slowest and the cancellation lands mid-block.
	opt := Options{Tol: 1e-3, MaxIter: 300, Workspace: mat.NewWorkspace()}

	// Uncancelled oracle, for iteration counts and converged columns.
	xRef := mat.NewDense(n, s)
	ref := SolveColumnsInto(context.Background(), matvec, nil, b, xRef, nil, opt)
	fastest := ref[0].Iterations
	for j := range ref {
		if ref[j].Iterations < fastest {
			fastest = ref[j].Iterations
		}
	}

	// Cancel after enough block applications that the fastest column has
	// converged but the others are still running: the solve starts from
	// X = 0 without an application, so application k runs lockstep
	// iteration k, and the cancel lands at the poll before iteration
	// fastest + 2.
	cancelAfter := fastest + 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applications := 0
	countingOp := BlockOp(func(dst, v *mat.Dense) {
		applications++
		if applications == cancelAfter {
			cancel()
		}
		for j := 0; j < v.Rows; j++ {
			matvec(dst.Row(j), v.Row(j))
		}
	})
	bT := transpose(b)
	xT := mat.NewDense(s, n)
	got := SolveBlockInto(ctx, countingOp, nil, bT, xT, nil, opt)

	sawCancelled := false
	for j := 0; j < s; j++ {
		if got[j].Converged {
			// Finished before the cancellation: full oracle result.
			if got[j].Err != nil || got[j].Iterations != ref[j].Iterations {
				t.Fatalf("converged column %d carries %+v, oracle %+v", j, got[j], ref[j])
			}
			for i := 0; i < n; i++ {
				if xT.Row(j)[i] != xRef.At(i, j) {
					t.Fatalf("converged column %d iterate differs from oracle at %d", j, i)
				}
			}
			continue
		}
		sawCancelled = true
		if got[j].Err == nil {
			t.Fatalf("unconverged column %d has nil Err after cancellation: %+v", j, got[j])
		}
		// Best iterate: identical to a per-column solve capped at the
		// iterations this column actually completed.
		capped := Options{Tol: opt.Tol, MaxIter: got[j].Iterations, Workspace: opt.Workspace}
		bc := make([]float64, n)
		xc := make([]float64, n)
		b.Col(bc, j)
		PCG(context.Background(), matvec, nil, bc, xc, capped)
		for i := 0; i < n; i++ {
			if xT.Row(j)[i] != xc[i] {
				t.Fatalf("cancelled column %d best iterate differs at %d: %g vs %g",
					j, i, xT.Row(j)[i], xc[i])
			}
		}
	}
	if !sawCancelled {
		t.Fatal("cancellation fired after every column converged — test exercises nothing")
	}
}

// TestSolveBlockIntoResultReuse pins the caller-owned results contract
// shared with SolveColumnsInto: reuse in place when capacity suffices,
// stale state cleared, growth when short.
func TestSolveBlockIntoResultReuse(t *testing.T) {
	const n, s = 16, 4
	spd, b := blockTestSystem(n, s, 3)
	op := perColumnBlockOp(func(dst, v []float64) { mat.MatVec(dst, spd, v) })
	bT := transpose(b)
	xT := mat.NewDense(s, n)
	opt := Options{Tol: 1e-10, MaxIter: 200, Workspace: mat.NewWorkspace()}

	recycled := make([]Result, s, s+2)
	recycled[1].Err = context.Canceled
	recycled[1].Residuals = []float64{9}
	got := SolveBlockInto(context.Background(), op, nil, bT, xT, recycled, opt)
	if &got[0] != &recycled[0] {
		t.Fatal("SolveBlockInto reallocated despite sufficient capacity")
	}
	for j := range got {
		if got[j].Err != nil || got[j].Residuals != nil {
			t.Fatalf("column %d: stale result state not cleared: %+v", j, got[j])
		}
		if !got[j].Converged {
			t.Fatalf("column %d did not converge: %+v", j, got[j])
		}
	}
	grown := SolveBlockInto(context.Background(), op, nil, bT, xT, make([]Result, 0, 1), opt)
	if len(grown) != s {
		t.Fatalf("grown results have %d entries, want %d", len(grown), s)
	}
}

// TestSolveBlockIntoZeroAllocWarm pins the RELAX pattern for the block
// solver: one results slice and a warm workspace make a full lockstep
// sweep allocation-free.
func TestSolveBlockIntoZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const n, s = 24, 5
	spd, b := blockTestSystem(n, s, 5)
	op := perColumnBlockOp(func(dst, v []float64) { mat.MatVec(dst, spd, v) })
	prec := perColumnBlockOp(func(dst, v []float64) {
		for i := range dst {
			dst[i] = v[i] / spd.At(i, i)
		}
	})
	bT := transpose(b)
	xT := mat.NewDense(s, n)
	opt := Options{Tol: 1e-10, MaxIter: 200, Workspace: mat.NewWorkspace()}
	var results []Result
	sweep := func() {
		results = SolveBlockInto(context.Background(), op, prec, bT, xT, results, opt)
	}
	sweep() // warm
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("warm SolveBlockInto sweep allocates %.1f objects", allocs)
	}
}
