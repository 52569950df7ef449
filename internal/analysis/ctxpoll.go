package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// kernelPackages are the packages whose streaming-decode and CG
// iteration kernels dominate a loop's wall clock: a loop driving them
// from a context-taking function is exactly the loop the per-iteration
// cancellation contract (ARCHITECTURE.md, block-CG contract) is about.
var kernelPackages = []string{"internal/hessian", "internal/krylov", "internal/dataset"}

// kernelNames are the entry points that decode a pool block or advance
// a CG iterate.
var kernelNames = map[string]bool{
	// dataset.PoolSource / hessian.Pool streaming decode
	"ReadRows": true, "Block": true, "Stream": true,
	// hessian blocked engines (single- and multi-RHS)
	"MatVecWS": true, "QuadAccumWS": true, "BlockDiagSumInto": true,
	"MatVecBlockWS": true, "QuadAccumBlockWS": true,
	// krylov solvers
	"Solve": true, "SolveInto": true, "SolveBlock": true,
	"SolveBlockInto": true,
}

// CtxPoll enforces the per-iteration cancellation contract: a loop
// inside a function that takes a context.Context and whose body calls
// streaming decode or CG iteration kernels must poll the context —
// reference ctx in its body (ctx.Err(), ctx.Done(), or pass ctx to a
// callee that polls). A streamed million-row solve whose loop ignores
// ctx turns DELETE/shutdown into a multi-second hang.
var CtxPoll = &goanalysis.Analyzer{
	Name:     "ctxpoll",
	Doc:      "report kernel-driving loops in ctx-taking functions that never poll the context (per-iteration cancellation contract)",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runCtxPoll,
}

func runCtxPoll(pass *goanalysis.Pass) (interface{}, error) {
	in := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := fileAllows(pass)
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		ctxObj := contextParam(pass, fd)
		if ctxObj == nil {
			return
		}
		allow := allows[enclosingFile(pass, fd.Pos())]
		checkLoops(pass, fd.Body, ctxObj, allow, false)
	})
	return nil, nil
}

// contextParam returns the object of the function's context.Context
// parameter, or nil. A parameter named _ cannot be polled, so it
// counts as absent only for the reference check, not for the report —
// a kernel loop under an ignored ctx is still a contract violation,
// reported against the loop.
func contextParam(pass *goanalysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() != "Context" || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			continue
		}
		for _, name := range field.Names {
			if def := pass.TypesInfo.Defs[name]; def != nil {
				return def
			}
		}
	}
	return nil
}

// checkLoops walks stmts looking for for/range loops. A loop that
// contains a kernel call but never references ctx — and has no
// enclosing loop that polls — is reported once, outermost first.
func checkLoops(pass *goanalysis.Pass, n ast.Node, ctxObj types.Object, allow allowSet, ancestorPolls bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c := c.(type) {
		case *ast.FuncLit:
			return false // separate execution context
		case *ast.ForStmt, *ast.RangeStmt:
			polls := referencesObj(pass, loopBody(c), ctxObj)
			if !polls && !ancestorPolls {
				if pos, kernel := kernelCallIn(pass, loopBody(c)); kernel != "" {
					if !allow.allows(pass.Fset, c.Pos(), "ctxpoll") && !allow.allows(pass.Fset, pos, "ctxpoll") {
						pass.Reportf(c.Pos(),
							"loop drives %s but never polls ctx; the cancellation contract requires a ctx check per iteration (ctx.Err() or pass ctx down)",
							kernel)
					}
					return false // one report covers the nested loops too
				}
			}
			checkLoops(pass, loopBody(c), ctxObj, allow, ancestorPolls || polls)
			return false
		}
		return true
	})
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// referencesObj reports whether the subtree mentions obj (including
// inside nested function literals: a closure capturing ctx — an
// OnIteration hook, say — still delegates cancellation).
func referencesObj(pass *goanalysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// kernelCallIn returns the position and display name of the first
// streaming/CG kernel call in the subtree, skipping nested function
// literals.
func kernelCallIn(pass *goanalysis.Pass, n ast.Node) (pos token.Pos, name string) {
	ast.Inspect(n, func(c ast.Node) bool {
		if name != "" {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, pkg := range kernelPackages {
			if f := calleeIn(pass, call, pkg); f != nil && kernelNames[f.Name()] {
				pos, name = call.Pos(), f.Pkg().Name()+"."+f.Name()
				return false
			}
		}
		return true
	})
	return pos, name
}
