package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// SentinelErr enforces the error-matching side of the streaming and
// incremental contracts: sentinel errors (firal.ErrResidentPool,
// server.ErrSaturated, mpi.ErrRankLost — and in general any
// package-level `Err*` variable of type error) must be matched with
// errors.Is, never compared with == or != or switched over. The
// sentinels cross package boundaries wrapped in %w chains (shard path
// context, HTTP handler mapping), so identity comparison silently stops
// matching the moment a caller adds context.
var SentinelErr = &goanalysis.Analyzer{
	Name:     "sentinelerr",
	Doc:      "report ==/!=/switch comparisons against sentinel error variables; use errors.Is (wrapped-error contract)",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runSentinelErr,
}

func runSentinelErr(pass *goanalysis.Pass) (interface{}, error) {
	in := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := fileAllows(pass)
	report := func(pos token.Pos, name string) {
		f := enclosingFile(pass, pos)
		if allows[f].allows(pass.Fset, pos, "sentinel") {
			return
		}
		pass.Reportf(pos, "comparison with sentinel error %s breaks on wrapped errors; use errors.Is", name)
	}

	in.Preorder([]ast.Node{(*ast.BinaryExpr)(nil), (*ast.SwitchStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			if isNilExpr(pass, n.X) || isNilExpr(pass, n.Y) {
				return // err == nil is the one identity test that is fine
			}
			if v := sentinelVar(pass, n.X); v != nil {
				report(n.Pos(), v.Name())
			} else if v := sentinelVar(pass, n.Y); v != nil {
				report(n.Pos(), v.Name())
			}
		case *ast.SwitchStmt:
			if n.Tag == nil || !isErrorType(pass.TypesInfo.TypeOf(n.Tag)) {
				return
			}
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if v := sentinelVar(pass, e); v != nil {
						report(e.Pos(), v.Name())
					}
				}
			}
		}
	})
	return nil, nil
}

// sentinelVar returns the package-level error variable named Err* that
// e refers to, or nil.
func sentinelVar(pass *goanalysis.Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.IsField() {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // local variable, not a sentinel
	}
	if len(v.Name()) < 4 || v.Name()[:3] != "Err" {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

func isNilExpr(pass *goanalysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
