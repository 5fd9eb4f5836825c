package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc reports allocating constructs inside functions annotated
// //rhlint:hotpath — the saturated Tick/EnqueueRead/NextWork chain whose
// zero-alloc property the runtime gates (TestSaturatedTickZeroAlloc and
// the bulk-skip gate) assert empirically. The static view catches the
// regression at review time; the runtime gate catches what escapes the
// static view.
//
// Flagged constructs:
//
//   - append whose destination shows no capacity evidence (any append is
//     flagged; amortized-growth sites carry an allow with the reasoning);
//   - make/new and map, slice, or &struct composite literals;
//   - function literals that capture variables (escaping closures);
//   - implicit or explicit conversion of a non-pointer-shaped value to
//     an interface (boxing);
//   - calls passing arguments to a variadic interface parameter
//     (...any): the backing slice for the arguments allocates even when
//     every argument is pointer-shaped;
//   - interprocedurally, any call to a function carrying an Allocates
//     fact: helpers no longer need their own //rhlint:hotpath
//     annotation to be checked — the fact propagates bottom-up through
//     the call graph, across packages, and the diagnostic names the
//     offending path down to the concrete allocation site.
//
// Unlike the determinism analyzers, hotalloc applies wherever the
// annotation appears — any package — because the annotation itself is
// the opt-in. Facts, however, are computed for every module package the
// walk visits, annotated or not.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: `reports allocating constructs in //rhlint:hotpath functions

Functions whose doc comment carries //rhlint:hotpath must not allocate:
no append/make/new, no map/slice/&struct literals, no capturing
closures, no boxing of non-pointer values into interfaces, no variadic
interface calls, and no calls to functions that allocate — computed
transitively, across packages, via Allocates facts. Arguments of panic
calls are exempt: a crash path produces no result bytes. Amortized or
one-time allocations carry //rhlint:allow hotalloc(reason); an allow on
an allocation site also stops the fact from propagating to callers.`,
	Run: runHotAlloc,
}

// stdAllocates names standard-library functions that are documented or
// well-known allocators. The standard library is never analyzed for
// facts (its export data carries no function bodies, see Load), so this
// curated table is the std knowledge the transitive analysis is allowed
// to use.
var stdAllocates = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Appendf": true,
	"errors.New":   true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strings.ToLower": true, "strings.ToUpper": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true, "strconv.AppendInt": true,
	"sort.Slice": true, "sort.SliceStable": true,
	"bytes.Clone": true, "slices.Clone": true, "maps.Clone": true,
}

func runHotAlloc(pass *Pass) error {
	funcs := packageFuncs(pass)
	// The Allocates fact of a function is its first allocating site that
	// no //rhlint:allow hotalloc(...) covers: a reasoned
	// amortized-allocation allow clears the whole hotpath closure above
	// it. Callees in this package resolve by fixpoint, callees in other
	// packages by their stored facts.
	propagate(funcs, func(fn funcInfo) bool {
		if _, ok := pass.Facts.allocates[fn.obj]; ok {
			return false // already known to allocate; monotone, done
		}
		found := false
		allocSites(pass, fn.decl, func(s allocSite) bool {
			if !pass.SuppressedAt(s.pos) {
				pass.Facts.allocates[fn.obj] = capWhy(s.why)
				found = true
			}
			return !found
		})
		return found
	})
	for _, fn := range funcs {
		if isHotpath(fn.decl) {
			allocSites(pass, fn.decl, func(s allocSite) bool {
				pass.Reportf(s.pos, "%s", s.msg)
				return true
			})
		}
	}
	return nil
}

// An allocSite is one allocating construct: where it is, the reason an
// Allocates fact records for it, and the finding a hotpath reports.
type allocSite struct {
	pos token.Pos
	why string
	msg string
}

// allocSites calls yield for each allocating construct in fd's body, in
// source order, until yield returns false. Within one call, callee
// evidence comes before the variadic argument slice ("calls
// fmt.Sprintf" names the path better than the generic slice message),
// and both before the call's boxed arguments. Function literal bodies
// are not walked (a literal runs later; its body is its own problem),
// nor are the arguments of panic calls: a hotpath about to crash may
// allocate its message, since nothing downstream of a panic produces
// result bytes.
func allocSites(pass *Pass, fd *ast.FuncDecl, yield func(allocSite) bool) {
	info := pass.TypesInfo
	hot := fd.Name.Name
	more := true
	emit := func(pos token.Pos, what, tail, format string, args ...any) {
		if more {
			why := what + " at " + shortPos(pass.Fset, pos) + tail
			more = yield(allocSite{pos: pos, why: why, msg: fmt.Sprintf(format, args...)})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pos := n.Pos()
			switch name := builtinName(info, n); name {
			case "panic":
				return false
			case "append":
				emit(pos, name, "", "append in hotpath %s may grow the backing array (preallocate, use a free list, or //rhlint:allow hotalloc(amortized: ...))", hot)
			case "make", "new":
				emit(pos, name, "", "%s allocates in hotpath %s", name, hot)
			case "":
				fn := callee(info, n)
				if fn != nil && fn.Pkg() != nil && stdAllocates[fn.Pkg().Path()+"."+fn.Name()] {
					emit(pos, "calls "+factName(fn), "", "call to %s allocates in hotpath %s (known allocating standard-library function)", factName(fn), hot)
				} else if why, ok := pass.Facts.allocates[fn]; ok {
					emit(pos, "calls "+factName(fn), ": "+why, "call to %s allocates in hotpath %s: %s (make the callee allocation-free, or //rhlint:allow hotalloc(reason))", factName(fn), hot, why)
				}
				if k := variadicInterfaceArgs(info, n); k > 0 {
					emit(pos, "variadic interface call", "", "call to %s passes %d argument(s) through a variadic interface parameter in hotpath %s: the argument slice allocates per call", types.ExprString(n.Fun), k, hot)
				}
			}
			forEachBoxedArg(pass, n, func(arg ast.Expr) {
				emit(arg.Pos(), "interface boxing", "", "interface conversion boxes %s in hotpath %s (non-pointer value escapes to the heap)", info.Types[arg].Type, hot)
			})
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					emit(n.Pos(), "map literal", "", "map literal allocates in hotpath %s", hot)
				case *types.Slice:
					emit(n.Pos(), "slice literal", "", "slice literal allocates in hotpath %s", hot)
				}
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				emit(n.Pos(), "&composite literal", "", "&composite literal allocates in hotpath %s (reuse a pooled or preallocated object)", hot)
			}
		case *ast.FuncLit:
			if v := capturedVar(info, n, fd); v != nil {
				emit(n.Pos(), "capturing closure", "", "closure captures %s in hotpath %s: capturing closures allocate (hoist the closure or pass state explicitly)", v.Name(), hot)
			}
			return false
		case *ast.GoStmt:
			emit(n.Pos(), "go statement", "", "go statement in hotpath %s: goroutine start allocates its stack", hot)
		}
		return more
	})
}

// variadicInterfaceArgs returns how many arguments the call passes
// through a variadic interface parameter (...any, ...interface{...}),
// or 0. Spreading an existing slice (f(xs...)) passes the slice itself
// and allocates nothing new.
func variadicInterfaceArgs(info *types.Info, call *ast.CallExpr) int {
	if call.Ellipsis != token.NoPos {
		return 0
	}
	sig := callSignature(info, call)
	if sig == nil || !sig.Variadic() {
		return 0
	}
	params := sig.Params()
	last, ok := params.At(params.Len() - 1).Type().(*types.Slice)
	if !ok || !types.IsInterface(last.Elem().Underlying()) {
		return 0
	}
	if n := len(call.Args) - (params.Len() - 1); n > 0 {
		return n
	}
	return 0
}

// capturedVar returns a variable the function literal captures from its
// enclosing function, or nil. Package-level variables and the literal's
// own parameters/locals are not captures.
func capturedVar(info *types.Info, lit *ast.FuncLit, outer *ast.FuncDecl) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		// Declared inside the literal: local, not a capture.
		if lit.Pos() <= pos && pos < lit.End() {
			return true
		}
		// Declared inside the enclosing function (parameters included):
		// a capture. Anything declared outside it is package scope.
		if outer.Pos() <= pos && pos < outer.End() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

// builtinName returns the name of the builtin the call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// forEachBoxedArg calls fn for every argument of the call that boxes a
// non-pointer-shaped concrete value into an interface: explicit
// conversions I(x) and implicit conversions at interface-typed
// parameters, variadic included.
func forEachBoxedArg(pass *Pass, call *ast.CallExpr, fn func(ast.Expr)) {
	info := pass.TypesInfo
	// Explicit conversion T(x) where T is an interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			fn(call.Args[0])
		}
		return
	}
	// Implicit conversion at a call site with interface params.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread: no per-element conversion
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt.Underlying()) && boxes(info, arg) {
			fn(arg)
		}
	}
}

// boxes reports whether converting arg to an interface allocates.
// Pointer-shaped values (pointers, channels, maps, funcs, unsafe
// pointers) fit in the interface word; everything else — ints, strings,
// structs, slices — escapes to the heap when boxed (small-int
// staticuint64s caching notwithstanding; on a hot path even that is a
// data-dependent branch worth surfacing).
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if types.IsInterface(t.Underlying()) {
		return false // interface-to-interface: no box
	}
	if tv.IsNil() {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
		// Constants of basic type may be boxed statically, but
		// variables are not.
		return tv.Value == nil
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored in the interface word
	default:
		return true
	}
}

// callSignature returns the signature of the called function, or nil
// for builtins and type conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}
