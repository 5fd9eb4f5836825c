package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedFlow enforces the per-task seed-derivation discipline: PRNG state
// is constructed from a derived task seed and never crosses a goroutine
// boundary. Sharing one generator across goroutines makes draw order
// depend on the scheduler — the exact bug class the per-task
// DeriveSeed/Fork design exists to prevent, and the one that breaks
// shard-merge bit-identity across worker processes.
//
// Two checks:
//
//   - construction: rand.NewSource / rand.New / stats.NewRNG arguments
//     must trace to a seed (an identifier mentioning "seed", a
//     DeriveSeed call, or a draw from an existing generator as in
//     Fork); constructing from a literal unrelated expression is
//     flagged;
//   - sharing: a go statement must not receive a PRNG-typed argument,
//     run a method on a PRNG receiver, or capture a PRNG-typed variable
//     declared outside its function literal.
//
// Constructor wrappers are resolved interprocedurally: a function whose
// every returned generator is provably derived (a seeded constructor, a
// Fork, or a call to another such function) carries a
// ReturnsDerivedPRNG fact, and calls to it count as fresh, derived
// generators anywhere in the build. A PRNG-returning function *without*
// the fact — a shared-global accessor, say — no longer gets the benefit
// of the doubt it used to: passing its result into a goroutine is
// flagged.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: `flags PRNGs built from non-seed values or shared across goroutines

PRNG constructors (rand.NewSource, rand.New, rand.NewPCG, stats.NewRNG)
must be fed a derived task seed: an expression mentioning a seed
variable, engine.DeriveSeed(...), or a draw from an existing generator
(the Fork pattern). A go statement must not carry PRNG state across the
goroutine boundary — fork a child generator per goroutine instead.
Functions that return derived generators carry a ReturnsDerivedPRNG
fact (computed across packages), so wrapper constructors are recognized
and shared-global accessors are not.`,
	Run: runSeedFlow,
}

func runSeedFlow(pass *Pass) error {
	computeDerivedPRNGFacts(pass)
	if !simVisiblePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSeedConstruction(pass, n)
			case *ast.GoStmt:
				checkGoroutineSharing(pass, n)
			}
			return true
		})
	}
	return nil
}

// computeDerivedPRNGFacts attaches ReturnsDerivedPRNG to every function
// whose returned PRNGs are all provably derived. The proof is
// shape-based on return expressions: a function that stashes its
// generator in a local or a field first simply gets no fact (callers
// then treat its results as shared — conservative in the flagging
// direction).
func computeDerivedPRNGFacts(pass *Pass) {
	funcs := packageFuncs(pass)
	propagate(funcs, func(fn funcInfo) bool {
		if pass.Facts.derived[fn.obj] || !returnsDerivedPRNG(pass, fn) {
			return false
		}
		pass.Facts.derived[fn.obj] = true
		return true
	})
}

// returnsDerivedPRNG reports whether fn's signature returns at least
// one PRNG-typed result and every return statement supplies derived
// expressions for all PRNG-typed results.
func returnsDerivedPRNG(pass *Pass, fn funcInfo) bool {
	sig, ok := fn.obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	hasPRNGResult := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isPRNGType(sig.Results().At(i).Type()) {
			hasPRNGResult = true
		}
	}
	if !hasPRNGResult {
		return false
	}
	sawReturn := false
	allDerived := true
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if !allDerived {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literals return for themselves
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				allDerived = false // naked return: generator came from a local
				return false
			}
			sawReturn = true
			for _, res := range n.Results {
				tv, ok := pass.TypesInfo.Types[res]
				if !ok || !isPRNGType(tv.Type) {
					continue
				}
				if !isDerivedPRNGExpr(pass, res) {
					allDerived = false
					return false
				}
			}
		}
		return true
	})
	return sawReturn && allDerived
}

// isDerivedPRNGExpr reports whether the expression produces a fresh,
// derived generator: a seeded constructor, a method drawn off an
// existing generator (Fork), or a call to a function carrying the
// ReturnsDerivedPRNG fact.
func isDerivedPRNGExpr(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	info := pass.TypesInfo
	// Method on a PRNG-typed receiver: rng.Fork() and friends.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isPRNGType(tv.Type) {
			return true
		}
	}
	fn := callee(info, call)
	// Known constructor with a seed-traced argument.
	if i, ok := seedArgIndex(fn); ok {
		return len(call.Args) > i && isSeedDerived(pass, call.Args[i])
	}
	// rand.New(src): derived iff its source argument is.
	if isRandNew(fn) {
		return len(call.Args) > 0 &&
			(isDerivedPRNGExpr(pass, call.Args[0]) || isSeedDerived(pass, call.Args[0]))
	}
	// A wrapper already proven to return derived generators.
	return pass.Facts.derived[fn]
}

// isRandNew reports whether fn is math/rand's or math/rand/v2's New,
// which wraps a source in a generator.
func isRandNew(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return (path == "math/rand" || path == "math/rand/v2") && fn.Name() == "New"
}

// seedArgIndex maps constructor name -> index of the seed argument, for
// math/rand, math/rand/v2, and the repo's stats.NewRNG.
func seedArgIndex(fn *types.Func) (int, bool) {
	if fn == nil || fn.Pkg() == nil {
		return 0, false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "math/rand" && name == "NewSource":
		return 0, true
	case path == "math/rand/v2" && (name == "NewPCG" || name == "NewChaCha8"):
		return 0, true
	case strings.HasSuffix(path, "internal/stats") && name == "NewRNG":
		return 0, true
	}
	return 0, false
}

func checkSeedConstruction(pass *Pass, call *ast.CallExpr) {
	fn := callee(pass.TypesInfo, call)
	i, ok := seedArgIndex(fn)
	if !ok || len(call.Args) <= i {
		return
	}
	arg := call.Args[i]
	if isSeedDerived(pass, arg) {
		return
	}
	pass.Reportf(call.Pos(), "%s seeded from %s, which does not trace to a derived task seed (use engine.DeriveSeed, a seed-named variable, or Fork an existing generator)",
		fn.Name(), types.ExprString(arg))
}

// isSeedDerived reports whether the expression plausibly carries a
// derived seed: it mentions an identifier or selector whose name
// contains "seed" (case-insensitive), calls a function whose name
// contains "seed" or is DeriveSeed, or draws from an existing PRNG —
// a method call on a PRNG-typed receiver (the Fork pattern) or on the
// result of a function with the ReturnsDerivedPRNG fact.
func isSeedDerived(pass *Pass, e ast.Expr) bool {
	info := pass.TypesInfo
	derived := false
	ast.Inspect(e, func(n ast.Node) bool {
		if derived {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "seed") {
				derived = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && isPRNGType(tv.Type) {
					derived = true // rng.Uint64() and friends: the Fork pattern
				}
			}
		}
		return !derived
	})
	return derived
}

// prngNames are the generator types whose sharing across goroutines is
// scheduler-dependent.
var prngNames = map[string]map[string]bool{
	"math/rand":    {"Rand": true, "Source": true, "Source64": true, "Zipf": true},
	"math/rand/v2": {"Rand": true, "Source": true, "Zipf": true, "PCG": true, "ChaCha8": true},
}

// isPRNGType reports whether t (possibly behind a pointer) is a known
// generator type, including the repo's stats.RNG.
func isPRNGType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	if names, ok := prngNames[path]; ok && names[name] {
		return true
	}
	return strings.HasSuffix(path, "internal/stats") && name == "RNG"
}

func checkGoroutineSharing(pass *Pass, g *ast.GoStmt) {
	info := pass.TypesInfo
	call := g.Call

	// go rng.Method(...) — the receiver itself crosses the boundary.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isPRNGType(tv.Type) {
			pass.Reportf(g.Pos(), "goroutine runs a method on shared PRNG %s: draw order becomes scheduler-dependent (Fork a child generator per goroutine)", types.ExprString(sel.X))
			return
		}
	}
	// go f(rng) — PRNG passed as an argument.
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isPRNGType(tv.Type) {
			// A fresh, derived generator created in the argument list is
			// the sanctioned pattern: go f(rng.Fork()).
			if isFreshFork(pass, arg) {
				continue
			}
			pass.Reportf(arg.Pos(), "PRNG %s passed across goroutine boundary: draw order becomes scheduler-dependent (pass rng.Fork() or a derived seed instead)", types.ExprString(arg))
		}
	}
	// go func() { ...rng... }() — PRNG captured by the literal.
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !isPRNGType(v.Type()) {
			return true
		}
		// Declared inside the literal (including its parameters): fine.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		pass.Reportf(id.Pos(), "goroutine captures PRNG %s declared outside it: draw order becomes scheduler-dependent (Fork a child generator inside the goroutine's task seed)", v.Name())
		return true
	})
}

// isFreshFork reports whether the expression is a call that produces a
// generator the goroutine may own outright: a known constructor (seed
// provenance is checkSeedConstruction's job), a Fork drawn off an
// existing generator, or a wrapper carrying the ReturnsDerivedPRNG
// fact. A call that merely has a PRNG result type — a shared-global
// accessor, a sync.Pool fetch — does not qualify: that is precisely
// the wrapper blind spot the fact closes.
func isFreshFork(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || !isPRNGType(tv.Type) {
		return false
	}
	return freshPRNGCall(pass, call)
}

// freshPRNGCall is isDerivedPRNGExpr minus the seed-provenance
// requirement on constructor arguments: constructors always mint a new
// generator (nothing is shared even if the seed is bad), so for the
// goroutine-sharing check they count as fresh unconditionally.
func freshPRNGCall(pass *Pass, call *ast.CallExpr) bool {
	info := pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && isPRNGType(tv.Type) {
			return true // rng.Fork() and friends
		}
	}
	fn := callee(info, call)
	if _, ok := seedArgIndex(fn); ok {
		return true
	}
	if isRandNew(fn) {
		// rand.New wraps its source: fresh iff the source is.
		if len(call.Args) == 0 {
			return true // rand/v2 has no such form; be permissive
		}
		if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
			return freshPRNGCall(pass, inner)
		}
		return false // rand.New(sharedSource): the source crosses the boundary
	}
	return pass.Facts.derived[fn]
}
