package analysis

import (
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
	Run:       runHotAlloc,
	FactTypes: []Fact{(*Allocates)(nil)},
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
	computeAllocFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// computeAllocFacts attaches an Allocates fact to every package-level
// function that allocates on some path — directly, or by calling a
// callee that does (same package via fixpoint, other packages via
// imported facts). Sites covered by //rhlint:allow hotalloc(...) are
// excluded: a reasoned amortized-allocation allow clears the whole
// hotpath closure above it, exactly as the annotation always promised.
func computeAllocFacts(pass *Pass) {
	funcs := packageFuncs(pass)
	propagate(funcs, func(fn funcInfo) bool {
		var have Allocates
		if pass.ImportObjectFact(fn.obj, &have) {
			return false // already known to allocate; monotone, done
		}
		why, found := firstAllocation(pass, fn.decl)
		if !found {
			return false
		}
		pass.ExportObjectFact(fn.obj, &Allocates{Why: capWhy(why)})
		return true
	})
}

// firstAllocation scans a function body in source order and returns a
// description of the first unsuppressed allocation evidence, direct or
// via a callee's Allocates fact.
func firstAllocation(pass *Pass, fd *ast.FuncDecl) (string, bool) {
	info := pass.TypesInfo
	why := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // crash path: allocation cannot perturb results
			}
			if w, ok := callAllocation(pass, n); ok {
				why = w
				return false
			}
			// Boxing at argument positions and explicit conversions.
			forEachBoxedArg(pass, n, func(arg ast.Expr) {
				if why == "" && !pass.SuppressedAt(arg.Pos()) {
					why = "interface boxing at " + shortPos(pass.Fset, arg.Pos())
				}
			})
		case *ast.CompositeLit:
			if pass.SuppressedAt(n.Pos()) {
				return true
			}
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					why = "map literal at " + shortPos(pass.Fset, n.Pos())
				case *types.Slice:
					why = "slice literal at " + shortPos(pass.Fset, n.Pos())
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && !pass.SuppressedAt(n.Pos()) {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					why = "&composite literal at " + shortPos(pass.Fset, n.Pos())
				}
			}
		case *ast.FuncLit:
			if !pass.SuppressedAt(n.Pos()) && capturedVar(info, n, fd) != nil {
				why = "capturing closure at " + shortPos(pass.Fset, n.Pos())
			}
			return false // the literal runs later; its body is its own problem
		case *ast.GoStmt:
			if !pass.SuppressedAt(n.Pos()) {
				why = "go statement at " + shortPos(pass.Fset, n.Pos())
			}
		}
		return why == ""
	})
	return why, why != ""
}

// callAllocation reports allocation evidence carried by one call
// expression: allocating builtins, known std allocators, variadic
// interface argument slices, and callees with Allocates facts.
func callAllocation(pass *Pass, call *ast.CallExpr) (string, bool) {
	if pass.SuppressedAt(call.Pos()) {
		return "", false
	}
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				return b.Name() + " at " + shortPos(pass.Fset, call.Pos()), true
			}
			return "", false
		}
	}
	// Callee-based evidence first: "calls fmt.Sprintf" names the path
	// better than the generic variadic-slice message would.
	if callee := calleeAt(info, call); callee != nil {
		if callee.Pkg() != nil && stdAllocates[callee.Pkg().Path()+"."+callee.Name()] {
			return "calls " + factName(callee) + " at " + shortPos(pass.Fset, call.Pos()), true
		}
		var fact Allocates
		if pass.ImportObjectFact(callee, &fact) {
			return "calls " + factName(callee) + " at " + shortPos(pass.Fset, call.Pos()) + ": " + fact.Why, true
		}
	}
	if n := variadicInterfaceArgs(info, call); n > 0 {
		return "variadic interface call at " + shortPos(pass.Fset, call.Pos()), true
	}
	return "", false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // crash path: allocation cannot perturb results
			}
			checkHotCall(pass, fd, n)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in hotpath %s", fd.Name.Name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in hotpath %s", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in hotpath %s (reuse a pooled or preallocated object)", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if capt := capturedVar(info, n, fd); capt != nil {
				pass.Reportf(n.Pos(), "closure captures %s in hotpath %s: capturing closures allocate (hoist the closure or pass state explicitly)", capt.Name(), fd.Name.Name)
			}
			return false // don't double-report the literal's own body
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath %s: goroutine start allocates its stack", fd.Name.Name)
		}
		return true
	})
	// Boxing: walk again looking at every expression with both a
	// concrete type and an interface conversion context.
	checkBoxing(pass, fd)
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "append in hotpath %s may grow the backing array (preallocate, use a free list, or //rhlint:allow hotalloc(amortized: ...))", fd.Name.Name)
			case "make":
				pass.Reportf(call.Pos(), "make allocates in hotpath %s", fd.Name.Name)
			case "new":
				pass.Reportf(call.Pos(), "new allocates in hotpath %s", fd.Name.Name)
			}
			return
		}
	}
	if n := variadicInterfaceArgs(info, call); n > 0 {
		pass.Reportf(call.Pos(), "call to %s passes %d argument(s) through a variadic interface parameter in hotpath %s: the argument slice allocates per call", types.ExprString(call.Fun), n, fd.Name.Name)
	}
	callee := calleeAt(info, call)
	if callee == nil {
		return
	}
	if callee.Pkg() != nil && stdAllocates[callee.Pkg().Path()+"."+callee.Name()] {
		pass.Reportf(call.Pos(), "call to %s allocates in hotpath %s (known allocating standard-library function)", factName(callee), fd.Name.Name)
		return
	}
	var fact Allocates
	if pass.ImportObjectFact(callee, &fact) {
		pass.Reportf(call.Pos(), "call to %s allocates in hotpath %s: %s (make the callee allocation-free, or //rhlint:allow hotalloc(reason))", factName(callee), fd.Name.Name, fact.Why)
	}
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

// checkBoxing flags conversions of non-pointer-shaped concrete values to
// interface types: call arguments, explicit conversions, and returns.
func checkBoxing(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass.TypesInfo, n) {
				return false
			}
			forEachBoxedArg(pass, n, func(arg ast.Expr) {
				pass.Reportf(arg.Pos(), "interface conversion boxes %s in hotpath %s (non-pointer value escapes to the heap)", pass.TypesInfo.Types[arg].Type, fd.Name.Name)
			})
		case *ast.FuncLit:
			return false
		}
		return true
	})
}

// isPanicCall reports whether the call invokes the panic builtin. A
// hotpath that is about to crash is allowed to allocate its message:
// nothing downstream of a panic produces result bytes, so the zero-alloc
// discipline does not apply to the crash path.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
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
