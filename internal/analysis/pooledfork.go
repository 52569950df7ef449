package analysis

import (
	"go/ast"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// PooledFork enforces the worker-pool contract inside //firal:hotpath
// functions: the function value handed to parallel.For / ForChunk /
// ForChunkMin must come from a pooled task record (the
// mat.kernelTask pattern — the dispatch func is built once, closing
// over the record), never from a func literal at the call site, which
// heap-allocates its capture environment on every kernel invocation.
var PooledFork = &goanalysis.Analyzer{
	Name:     "pooledfork",
	Doc:      "report func literals passed to internal/parallel dispatch inside //firal:hotpath functions (pooled task-record contract)",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runPooledFork,
}

func runPooledFork(pass *goanalysis.Pass) (interface{}, error) {
	in := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := fileAllows(pass)
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !isHotpath(fd) {
			return
		}
		allow := allows[enclosingFile(pass, fd.Pos())]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if stmt, ok := n.(ast.Stmt); ok && allow.allows(pass.Fset, stmt.Pos(), "closure") {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelDispatch(pass, call) {
				return true
			}
			for _, a := range call.Args {
				if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					if !allow.allows(pass.Fset, lit.Pos(), "closure") {
						pass.Reportf(lit.Pos(),
							"func literal passed to parallel dispatch in //firal:hotpath function; use a pooled task record (mat.kernelTask pattern)")
					}
				}
			}
			return true
		})
	})
	return nil, nil
}
