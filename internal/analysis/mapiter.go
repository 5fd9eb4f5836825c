package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIter flags `range` over a map in simulation-visible packages.
// Go randomizes map iteration order on purpose, so any map-ordered loop
// whose effects reach published state is a reproducibility bug waiting
// for a fuzz seed to find it.
//
// Two shapes are exempt without annotation:
//
//   - the delete-clear idiom: a loop whose body only deletes from the
//     map being ranged (order cannot matter);
//   - sort-then-iterate: the loop only accumulates into locals that a
//     sort.* / slices.Sort* call in the same function orders before any
//     consumer sees them.
//
// Anything else needs //rhlint:allow mapiter(reason).
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: `flags range-over-map in simulation-visible packages

Map iteration order is randomized; in packages whose state reaches
published results (sim, memctrl, cpu, cache, dram, faultmodel, attack,
mitigation, engine, core, stats, chips, trace, ecc, charact) a ranged
map must either feed a sort-then-iterate pattern, be the delete-clear
idiom, or carry //rhlint:allow mapiter(reason).`,
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	if !simVisiblePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isDeleteClear(pass.TypesInfo, rs) || feedsSort(pass, rs, stack) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s in simulation-visible package %q: iteration order is nondeterministic (sort the keys first, or //rhlint:allow mapiter(reason))",
				types.ExprString(rs.X), pass.Pkg.Path())
			return true
		})
	}
	return nil
}

// isDeleteClear recognizes `for k := range m { delete(m, k) }`: the
// compiler-blessed map-clear idiom, trivially order-independent.
func isDeleteClear(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	// Both the ranged expression and delete's first argument must be the
	// same object (or at least the same spelled expression).
	return sameObject(info, rs.X, call.Args[0])
}

// sameObject reports whether two expressions denote the same variable
// (by object identity for identifiers/selectors, else by spelling).
func sameObject(info *types.Info, a, b ast.Expr) bool {
	oa, ob := rootObject(info, a), rootObject(info, b)
	if oa != nil && ob != nil {
		return oa == ob
	}
	return types.ExprString(a) == types.ExprString(b)
}

// feedsSort reports whether the range loop only writes locals that are
// sorted after the loop in the same function body (the sort-then-iterate
// pattern): collect keys/values in arbitrary order, order them, then
// consume. The check is shape-based, not a dataflow proof: every object
// assigned or appended to inside the loop body is collected, and some
// collected object must appear as an argument of a sort.*/slices.* call
// after the loop. Mutating anything through a pointer, a method call, or
// a channel inside the loop defeats the exemption.
func feedsSort(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	body := enclosingFuncBody(stack[:len(stack)-1])
	if body == nil {
		return false
	}

	// Objects written inside the loop body.
	written := map[types.Object]bool{}
	escapes := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if o := identObject(pass.TypesInfo, l); o != nil {
						written[o] = true
					}
				case *ast.IndexExpr:
					if o := rootObject(pass.TypesInfo, l.X); o != nil {
						written[o] = true
					}
				case *ast.SelectorExpr, *ast.StarExpr:
					// Writing through a field or pointer publishes state
					// before any sort can run.
					escapes = true
				}
			}
		case *ast.SendStmt, *ast.ReturnStmt:
			escapes = true
		}
		return true
	})
	if escapes || len(written) == 0 {
		return false
	}

	// A sort call after the loop over one of the written objects.
	sorted := false
	for _, stmt := range body.List {
		if stmt.Pos() < rs.End() {
			continue
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || sorted {
				return !sorted
			}
			// The called object, function or conversion type alike:
			// sort.Sort(sort.StringSlice(keys)) sorts keys.
			obj := rootObject(pass.TypesInfo, call.Fun)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			path := obj.Pkg().Path()
			if path != "sort" && path != "slices" && !strings.HasSuffix(path, "/sort") {
				return true
			}
			for _, arg := range call.Args {
				if o := rootObject(pass.TypesInfo, argRoot(arg)); o != nil && written[o] {
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}

// identObject resolves an identifier's object from either Defs (for :=)
// or Uses (for =).
func identObject(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// argRoot strips slicing and func-literal wrappers so sort.Slice(keys,
// func...) and sort.Strings(keys[:n]) both resolve to keys.
func argRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}
