package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Hotpath enforces the Workspace zero-alloc contract on functions
// annotated //firal:hotpath: no make/new, no growing append, no map
// literals, no closure literals, no explicit interface-boxing
// conversions, no fmt calls outside return statements or panic
// arguments (both are cold exits by construction). Two idioms are
// exempt: the allocate-on-nil API convenience — `if dst == nil { dst =
// make(...) }` — because steady-state callers pass dst, and
// immediately-deferred cleanup literals — `defer func(){...}()` —
// which do not escape. Cold branches inside an annotated function opt
// out statement-by-statement with //firal:allow(alloc).
var Hotpath = &goanalysis.Analyzer{
	Name:     "hotpath",
	Doc:      "report allocation sources inside //firal:hotpath functions (Workspace zero-alloc contract)",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runHotpath,
}

func runHotpath(pass *goanalysis.Pass) (interface{}, error) {
	in := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := fileAllows(pass)
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !isHotpath(fd) {
			return
		}
		w := &hotWalker{pass: pass, allow: allows[enclosingFile(pass, fd.Pos())]}
		w.walk(fd.Body)
	})
	return nil, nil
}

// hotWalker recursively checks one annotated function body, tracking
// cold-exit context (return statements, panic arguments), nil-guard
// context, and //firal:allow(alloc) regions.
type hotWalker struct {
	pass       *goanalysis.Pass
	allow      allowSet
	inColdExit bool
	nilGuard   types.Object // variable proven nil by the enclosing if
}

func (w *hotWalker) reportf(pos token.Pos, format string, args ...interface{}) {
	if w.allow.allows(w.pass.Fset, pos, "alloc") {
		return
	}
	w.pass.Reportf(pos, format, args...)
}

func (w *hotWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	if stmt, ok := n.(ast.Stmt); ok && w.allow.allows(w.pass.Fset, stmt.Pos(), "alloc") {
		return // the allow comment covers the whole statement subtree
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		// `defer func(){...}()` is the standard cleanup idiom; the
		// literal does not escape and is stack-allocated with open-coded
		// defers. Its body is still checked.
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			w.walk(lit.Body)
			for _, a := range n.Call.Args {
				w.walk(a)
			}
			return
		}
	case *ast.ReturnStmt:
		saved := w.inColdExit
		w.inColdExit = true
		for _, r := range n.Results {
			w.walk(r)
		}
		w.inColdExit = saved
		return
	case *ast.IfStmt:
		// `if x == nil { x = make(...) }` is the allocate-on-nil API
		// convenience: callers on the steady-state path pass x, so the
		// branch is cold. Record the guarded variable for the body.
		if obj := nilCheckedObj(w.pass, n.Cond); obj != nil {
			w.walk(n.Init)
			saved := w.nilGuard
			w.nilGuard = obj
			w.walk(n.Body)
			w.nilGuard = saved
			w.walk(n.Else) // guard does not hold in the else branch
			return
		}
	case *ast.AssignStmt:
		if w.nilGuard != nil && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && identObj(w.pass, id) == w.nilGuard {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isMakeOrNew(w.pass, call) {
					for _, a := range call.Args {
						w.walk(a)
					}
					return
				}
			}
		}
	case *ast.FuncLit:
		// A closure literal heap-allocates its capture environment at
		// each execution of this line, including one handed to a
		// parallel dispatcher (the pooled task record avoids it).
		w.reportf(n.Pos(), "closure literal in //firal:hotpath function allocates per call; hoist it or use a pooled task record")
		return // one report per closure; don't cascade into its body
	case *ast.CompositeLit:
		if t := w.pass.TypesInfo.TypeOf(n); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				w.reportf(n.Pos(), "map literal in //firal:hotpath function allocates; hoist the map into reusable state")
			}
		}
	case *ast.CallExpr:
		if isBuiltin(w.pass, n, "panic") {
			// panic(fmt.Sprintf(...)) never returns: a cold exit like a
			// return statement, so its arguments may format.
			saved := w.inColdExit
			w.inColdExit = true
			for _, a := range n.Args {
				w.walk(a)
			}
			w.inColdExit = saved
			return
		}
		w.checkCall(n)
	}
	for _, c := range children(n) {
		w.walk(c)
	}
}

func (w *hotWalker) checkCall(call *ast.CallExpr) {
	info := w.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Builtins: make, new, append.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.reportf(call.Pos(), "make in //firal:hotpath function; draw scratch from the mat.Workspace arena instead")
			case "new":
				w.reportf(call.Pos(), "new in //firal:hotpath function; reuse pooled state instead")
			case "append":
				// append(dst[:0], …) and friends reuse dst's capacity —
				// the documented idiom for result slices — so only flag
				// appends whose base is not an explicit reslice.
				if len(call.Args) > 0 {
					if _, reslice := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reslice {
						w.reportf(call.Pos(), "append may grow in //firal:hotpath function; reslice a reusable buffer (dst[:0]) or preallocate")
					}
				}
			}
			return
		}
	}

	// fmt calls: formatting allocates and takes arguments through
	// interfaces. `return fmt.Errorf(…)` and `panic(fmt.Sprintf(…))`
	// exit the function — cold paths by construction — so only in-flow
	// calls are reported.
	if f := calleeIn(w.pass, call, "fmt"); f != nil && !w.inColdExit {
		w.reportf(call.Pos(), "fmt.%s in //firal:hotpath function allocates; move formatting off the hot path", f.Name())
		return
	}

	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if src != nil && types.IsInterface(dst) && !types.IsInterface(src) {
			if stv, ok := info.Types[call.Args[0]]; !ok || !stv.IsNil() {
				w.reportf(call.Pos(), "conversion to interface type %s boxes the value in //firal:hotpath function", dst.String())
			}
		}
	}
}

// nilCheckedObj matches `x == nil` / `nil == x` for a plain identifier
// x and returns x's object, else nil.
func nilCheckedObj(pass *goanalysis.Pass, cond ast.Expr) types.Object {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if tv, ok := pass.TypesInfo.Types[x]; ok && tv.IsNil() {
		x, y = y, x
	}
	if tv, ok := pass.TypesInfo.Types[y]; !ok || !tv.IsNil() {
		return nil
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	return identObj(pass, id)
}

// identObj returns the object an identifier uses or defines.
func identObj(pass *goanalysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *goanalysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isMakeOrNew reports whether call is the make or new builtin.
func isMakeOrNew(pass *goanalysis.Pass, call *ast.CallExpr) bool {
	return isBuiltin(pass, call, "make") || isBuiltin(pass, call, "new")
}

// children returns the direct child nodes of n in source order.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
