package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// MaxWorkers confines parallel.SetMaxWorkers, the process-wide worker
// count, to the code that owns the process: internal/parallel itself,
// package main (process entry points), and _test.go files. Library code
// that set it would race with every other session in the process, whose
// rounds share one worker pool.
var MaxWorkers = &goanalysis.Analyzer{
	Name:     "maxworkers",
	Doc:      "confine parallel.SetMaxWorkers to internal/parallel, package main and tests (process-wide worker count)",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runMaxWorkers,
}

func runMaxWorkers(pass *goanalysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "main" || pkgPathIs(pass.Pkg.Path(), "internal/parallel") {
		return nil, nil
	}
	in := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := fileAllows(pass)
	in.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		f := calleeIn(pass, call, "internal/parallel")
		if f == nil || f.Name() != "SetMaxWorkers" {
			return
		}
		if strings.HasSuffix(filepath.Base(pass.Fset.Position(call.Pos()).Filename), "_test.go") {
			return // tests save/restore deliberately, with no concurrent sessions
		}
		if allows[enclosingFile(pass, call.Pos())].allows(pass.Fset, call.Pos(), "limit") {
			return
		}
		pass.Reportf(call.Pos(),
			"parallel.SetMaxWorkers is process-wide and races between sessions; set it only in internal/parallel, package main or tests")
	})
	return nil, nil
}
