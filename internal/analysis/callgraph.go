package analysis

// Shared call-graph scaffolding for the fact-producing analyzers. Each
// of them computes a per-function fact ("allocates", "impure",
// "returns a derived PRNG") by scanning function bodies and consulting
// the facts of callees — which live either in the same package (requiring
// a fixpoint over the package's possibly mutually recursive functions)
// or in an already-analyzed dependency (requiring only a store lookup).

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// A funcInfo pairs one declared function with its type object.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

// packageFuncs returns the package's function declarations with bodies,
// in file/source order (deterministic fact and diagnostic order).
func packageFuncs(pass *Pass) []funcInfo {
	var out []funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, funcInfo{decl: fd, obj: obj})
		}
	}
	return out
}

// propagate runs compute over the package's functions until a full
// sweep produces no new fact — the fixpoint that resolves same-package
// (including mutually recursive) call chains. compute must be monotone:
// it only ever adds facts, so the loop terminates in at most one sweep
// per function.
func propagate(funcs []funcInfo, compute func(fn funcInfo) bool) {
	for range funcs {
		changed := false
		for _, fn := range funcs {
			if compute(fn) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// callee resolves the function a call expression statically invokes,
// as declared — a method of an instantiated generic type, or an explicit
// instantiation such as mk[int], resolves to its generic origin, the
// object its facts are keyed by — or nil for builtins, conversions and
// func-typed values. An interface-method call resolves to the
// interface's method, which carries no fact, so the fact analyses treat
// it as unknown.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	// An explicit instantiation, mk[int] or pkg.F[K, V], indexes the
	// generic function itself. An index into a map or slice of funcs
	// names a variable, which is no *types.Func.
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	fn, ok := rootObject(info, fun).(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// rootObject resolves the object an identifier or field selection
// denotes, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// shortPos renders a position as "file.go:123" for fact Why chains —
// compact enough to survive several levels of propagation.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// factName renders a function for Why chains and diagnostics:
// "pkgname.Func" or "pkgname.(Type).Method".
func factName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// capWhy bounds a Why chain so deeply nested propagation cannot bloat
// facts or diagnostics.
func capWhy(s string) string {
	const max = 240
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}
