package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Analyzers returns the full firal-vet suite in a fixed order.
func Analyzers() []*goanalysis.Analyzer {
	return []*goanalysis.Analyzer{
		Hotpath,
		MaxWorkers,
		SentinelErr,
		LockOrder,
		CtxPoll,
	}
}

// hotpathMarker annotates a function whose body is a steady-state hot
// path: it runs once per candidate/iteration/block inside a selection
// round, so the zero-alloc Workspace contract applies to it.
const hotpathMarker = "firal:hotpath"

// isHotpath reports whether the function declaration carries the
// //firal:hotpath directive in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//"+hotpathMarker) {
			return true
		}
	}
	return false
}

// allowRe matches //firal:allow(cat1,cat2) with an optional trailing
// justification after the closing parenthesis.
var allowRe = regexp.MustCompile(`^//firal:allow\(([a-zA-Z0-9_, ]+)\)`)

// allowSet records, per line of one file, which diagnostic categories a
// //firal:allow comment suppresses.
type allowSet map[int]map[string]bool

// allowsInFile collects the //firal:allow annotations of f.
func allowsInFile(fset *token.FileSet, f *ast.File) allowSet {
	var as allowSet
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if as == nil {
				as = make(allowSet)
			}
			cats := as[line]
			if cats == nil {
				cats = make(map[string]bool)
				as[line] = cats
			}
			for _, cat := range strings.Split(m[1], ",") {
				cats[strings.TrimSpace(cat)] = true
			}
		}
	}
	return as
}

// allows reports whether category cat is suppressed at pos: an allow
// comment sits on the same line (trailing) or on the line above (its
// own line, covering the statement that follows).
func (as allowSet) allows(fset *token.FileSet, pos token.Pos, cat string) bool {
	if as == nil {
		return false
	}
	line := fset.Position(pos).Line
	return as[line][cat] || as[line-1][cat]
}

// fileAllows builds the per-file allow index for one pass.
func fileAllows(pass *goanalysis.Pass) map[*ast.File]allowSet {
	m := make(map[*ast.File]allowSet, len(pass.Files))
	for _, f := range pass.Files {
		m[f] = allowsInFile(pass.Fset, f)
	}
	return m
}

// enclosingFile returns the *ast.File of pos.
func enclosingFile(pass *goanalysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// pkgPathIs reports whether path is suffix itself or ends in /suffix —
// the loose match that lets analysistest fixtures stand in for the real
// repro/internal/... packages.
func pkgPathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeIn returns the called *types.Func if call resolves to a
// function or method of a package whose import path ends in pkgSuffix,
// else nil.
func calleeIn(pass *goanalysis.Pass, call *ast.CallExpr, pkgSuffix string) *types.Func {
	fn := typeutil.Callee(pass.TypesInfo, call)
	f, ok := fn.(*types.Func)
	if !ok || f.Pkg() == nil || !pkgPathIs(f.Pkg().Path(), pkgSuffix) {
		return nil
	}
	return f
}

// namedTypeName returns the name of the (possibly pointer-wrapped)
// named or aliased type of e, or "".
func namedTypeName(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for {
		switch tt := t.(type) {
		case *types.Named:
			return tt.Obj().Name()
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return ""
		}
	}
}

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
