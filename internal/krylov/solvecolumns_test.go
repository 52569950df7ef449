package krylov

import (
	"context"
	"math"
	"testing"

	"repro/internal/mat"
)

// Op applies a linear operator: dst = A·v. dst and v never alias.
type Op func(dst, v []float64)

// PCG solves A x = b with preconditioned conjugate gradients, one
// right-hand side: the scalar recurrence that SolveBlockInto runs per
// column, kept as its per-column oracle. precond applies M⁻¹ (pass nil
// for unpreconditioned CG). x is output only: the solve starts from
// x = 0, so r = b without an operator application. The context is polled
// once per iteration; on cancellation the result carries ctx.Err() and
// the current iterate.
func PCG(ctx context.Context, a Op, precond Op, b, x []float64, opt Options) Result {
	n := len(b)
	if len(x) != n {
		panic("krylov: x/b length mismatch")
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	ws := opt.Workspace
	r := ws.Vec(n)
	av := ws.Vec(n)
	defer func() {
		ws.PutVec(r)
		ws.PutVec(av)
	}()
	for i := range x {
		x[i] = 0
	}
	copy(r, b)
	bnorm := mat.Nrm2(b)
	if bnorm == 0 {
		return Result{Converged: true, RelResidual: 0}
	}

	z := ws.Vec(n)
	//firal:allow(alloc) — built once per solve, non-escaping
	applyPrec := func() {
		if precond != nil {
			precond(z, r)
		} else {
			copy(z, r)
		}
	}
	applyPrec()
	p := ws.Vec(n)
	copy(p, z)
	defer func() {
		ws.PutVec(z)
		ws.PutVec(p)
	}()
	rz := mat.Dot(r, z)

	res := Result{}
	rel := mat.Nrm2(r) / bnorm
	if opt.RecordResiduals {
		res.Residuals = append(res.Residuals, rel) //firal:allow(alloc) diagnostics mode
	}
	if rel <= opt.Tol {
		res.Converged = true
		res.RelResidual = rel
		return res
	}

	for it := 0; it < maxIter; it++ {
		if err := ctx.Err(); err != nil {
			res.RelResidual = rel
			res.Err = err
			return res
		}
		a(av, p)
		pap := mat.Dot(p, av)
		if pap <= 0 || math.IsNaN(pap) {
			// Operator lost positive definiteness numerically; stop with
			// the best iterate so far.
			res.Iterations = it
			res.RelResidual = rel
			return res
		}
		alpha := rz / pap
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, av, r)
		rel = mat.Nrm2(r) / bnorm
		res.Iterations = it + 1
		if opt.RecordResiduals {
			res.Residuals = append(res.Residuals, rel) //firal:allow(alloc) diagnostics mode
		}
		if rel <= opt.Tol {
			res.Converged = true
			break
		}
		applyPrec()
		rzNew := mat.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.RelResidual = rel
	return res
}

// SolveColumns solves A X = B column-by-column with (preconditioned) CG,
// writing solutions into x (same shape as b, output only).
// It returns per-column results. It is the per-column oracle the block
// solver is pinned against: SolveBlockInto must match it bit for bit. A
// cancelled context stops the sweep at the current column; the remaining
// results report the context error.
func SolveColumns(ctx context.Context, a Op, precond Op, b, x *mat.Dense, opt Options) []Result {
	return SolveColumnsInto(ctx, a, precond, b, x, nil, opt)
}

// SolveColumnsInto is SolveColumns writing the per-column results into
// the caller's slice (grown when its capacity is short, reset
// otherwise). Pass the previous return value back in; the contents are
// overwritten.
func SolveColumnsInto(ctx context.Context, a Op, precond Op, b, x *mat.Dense, results []Result, opt Options) []Result {
	if b.Rows != x.Rows || b.Cols != x.Cols {
		panic("krylov: SolveColumns shape mismatch")
	}
	if cap(results) < b.Cols {
		results = make([]Result, b.Cols)
	} else {
		results = results[:b.Cols]
		for j := range results {
			results[j] = Result{}
		}
	}
	ws := opt.Workspace
	bc := ws.Vec(b.Rows)
	xc := ws.Vec(b.Rows)
	defer func() {
		ws.PutVec(bc)
		ws.PutVec(xc)
	}()
	for j := 0; j < b.Cols; j++ {
		if err := ctx.Err(); err != nil {
			for k := j; k < b.Cols; k++ {
				results[k].Err = err
			}
			return results
		}
		b.Col(bc, j)
		results[j] = PCG(ctx, a, precond, bc, xc, opt)
		x.SetCol(j, xc)
	}
	return results
}

// TestSolveColumnsIntoReuse pins the caller-owned results contract: the
// slice is reused in place when capacity suffices, stale fields from the
// previous sweep are cleared, and the solutions match a fresh
// SolveColumns call.
func TestSolveColumnsIntoReuse(t *testing.T) {
	const n, cols = 24, 5
	spd := mat.Eye(n)
	for i := 0; i < n; i++ {
		spd.Set(i, i, 2+float64(i%3))
	}
	a := func(dst, v []float64) { matVec(dst, spd, v) }
	b := mat.NewDense(n, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < n; i++ {
			b.Set(i, j, float64(i+j+1))
		}
	}
	opt := Options{Tol: 1e-12, MaxIter: 200, Workspace: mat.NewWorkspace()}

	x1 := mat.NewDense(n, cols)
	fresh := SolveColumns(context.Background(), a, nil, b, x1, opt)

	// Poison a recycled slice with stale state; Into must clear it.
	recycled := make([]Result, cols, cols+3)
	recycled[2].Err = context.Canceled
	recycled[2].Residuals = []float64{1, 2, 3}
	x2 := mat.NewDense(n, cols)
	got := SolveColumnsInto(context.Background(), a, nil, b, x2, recycled, opt)
	if &got[0] != &recycled[0] {
		t.Fatal("SolveColumnsInto reallocated despite sufficient capacity")
	}
	for j := range got {
		if got[j].Err != nil || got[j].Residuals != nil {
			t.Fatalf("column %d: stale result state not cleared: %+v", j, got[j])
		}
		if !got[j].Converged || got[j].Iterations != fresh[j].Iterations {
			t.Fatalf("column %d: reused solve diverges from fresh: %+v vs %+v", j, got[j], fresh[j])
		}
	}
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("reused solve produced different solution")
		}
	}

	// Short capacity grows.
	grown := SolveColumnsInto(context.Background(), a, nil, b, x2, make([]Result, 0, 1), opt)
	if len(grown) != cols {
		t.Fatalf("grown results have %d entries, want %d", len(grown), cols)
	}
}

// TestSolveColumnsIntoZeroAllocWarm pins that the RELAX pattern — one
// results slice reused across sweeps with a warm workspace — allocates
// nothing per sweep.
func TestSolveColumnsIntoZeroAllocWarm(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const n, cols = 16, 4
	spd := mat.Eye(n)
	for i := 0; i < n; i++ {
		spd.Set(i, i, 3+float64(i%2))
	}
	a := func(dst, v []float64) { matVec(dst, spd, v) }
	b := mat.NewDense(n, cols)
	for i := range b.Data {
		b.Data[i] = float64(i%7) - 3
	}
	x := mat.NewDense(n, cols)
	opt := Options{Tol: 1e-10, MaxIter: 100, Workspace: mat.NewWorkspace()}
	var results []Result
	sweep := func() {
		results = SolveColumnsInto(context.Background(), a, nil, b, x, results, opt)
	}
	sweep() // warm
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Fatalf("warm SolveColumnsInto sweep allocates %.1f objects", allocs)
	}
}
