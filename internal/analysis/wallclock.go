package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// WallClock forbids ambient-environment reads in simulation-visible
// packages: wall-clock time, the process-global math/rand state, and
// environment variables. All three smuggle per-run state into what must
// be a pure function of (config, seed).
//
// The check is interprocedural: every module function that reaches an
// ambient read — directly or through any chain of callees, across
// package boundaries — carries an Impure fact, and a simulation-visible
// package calling an impure helper that lives in a *non*-sim package is
// flagged at the boundary call site, with the diagnostic naming the
// chain down to the leaf read. Direct reads inside sim packages are
// flagged at the read itself, as before; an //rhlint:allow
// wallclock(reason) on the leaf stops both the diagnostic and the fact,
// so one reasoned allow clears every caller.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: `forbids time.Now, global math/rand, and os.Getenv in sim packages

Simulation-visible packages must be pure functions of configuration and
seed. time.Now/Since/Until, the package-level math/rand functions
(rand.Intn, rand.Float64, ...), and os.Getenv/LookupEnv/Environ all read
ambient process state — and so does any function that reaches one of
them through helpers, which the Impure fact tracks across packages.
Seeded generators (rand.New(rand.NewSource(s))) and the documented
RH_ENGINE engine-selection variable are allowed.`,
	Run: runWallClock,
}

// seededRandConstructors are the math/rand functions that construct
// explicit generators rather than touching the global one.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// allowedEnvVars are the documented configuration entrypoints read once
// at startup (sync.OnceValue), never per-task.
var allowedEnvVars = map[string]bool{"RH_ENGINE": true}

func runWallClock(pass *Pass) error {
	computeImpureFacts(pass)
	if !simVisiblePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, detail := directImpureCall(pass.TypesInfo, call); kind != nil {
				reportDirectImpure(pass, call, kind, detail)
				return true
			}
			// The interprocedural boundary: a call into a non-sim
			// package whose target carries an Impure fact. Leaves
			// inside sim-visible packages are flagged at the read (or
			// at their own boundary call), so only foreign, unflagged
			// impurity is surfaced here.
			fn := callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path() || simVisiblePkg(fn.Pkg().Path()) {
				return true
			}
			if fact, ok := pass.Facts.impure[fn]; ok {
				pass.Reportf(call.Pos(), "call to %s reads %s in simulation-visible package %q: %s (plumb cycles, configuration, or a seeded source through explicitly)",
					factName(fn), fact.kinds(), pass.Pkg.Path(), fact.Why)
			}
			return true
		})
	}
	return nil
}

// computeImpureFacts attaches an Impure fact to every package-level
// function that reaches an ambient read, merging the impurity kinds of
// every unsuppressed site and callee fact. Runs for every module
// package, sim-visible or not — non-sim helpers are exactly the blind
// spot the facts close.
func computeImpureFacts(pass *Pass) {
	funcs := packageFuncs(pass)
	propagate(funcs, func(fn funcInfo) bool {
		merged := Impure{}
		found := false
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || pass.SuppressedAt(call.Pos()) {
				return true
			}
			if kind, detail := directImpureCall(pass.TypesInfo, call); kind != nil {
				if !found {
					merged.Why = detail + " at " + shortPos(pass.Fset, call.Pos())
				}
				mergeImpure(&merged, kind)
				found = true
				return true
			}
			c := callee(pass.TypesInfo, call)
			if fact, ok := pass.Facts.impure[c]; ok {
				if !found {
					merged.Why = "calls " + factName(c) + " at " + shortPos(pass.Fset, call.Pos()) + ": " + fact.Why
				}
				mergeImpure(&merged, &fact)
				found = true
			}
			return true
		})
		if !found {
			return false
		}
		if have, ok := pass.Facts.impure[fn.obj]; ok {
			merged.Why = have.Why // keep the first-found chain stable
			if merged == have {
				return false // fixpoint for this function
			}
		}
		merged.Why = capWhy(merged.Why)
		pass.Facts.impure[fn.obj] = merged
		return true
	})
}

func mergeImpure(dst, src *Impure) {
	dst.TimeNow = dst.TimeNow || src.TimeNow
	dst.GlobalRand = dst.GlobalRand || src.GlobalRand
	dst.Getenv = dst.Getenv || src.Getenv
}

// directImpureCall classifies a call that itself performs an ambient
// read, returning the impurity kind and a display name ("time.Now"),
// or (nil, ""). Allowlisted reads (RH_ENGINE, seeded constructors,
// methods on explicit generators) return nil.
func directImpureCall(info *types.Info, call *ast.CallExpr) (*Impure, string) {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return &Impure{TimeNow: true}, "time." + name
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			if name != "Environ" && isAllowedEnvRead(info, call) {
				return nil, ""
			}
			return &Impure{Getenv: true}, "os." + name
		}
	case "math/rand", "math/rand/v2":
		// Only the package-level convenience functions use the
		// global generator; methods on *Rand et al. have receivers.
		if fn.Type().(*types.Signature).Recv() != nil {
			return nil, ""
		}
		if seededRandConstructors[name] {
			return nil, ""
		}
		return &Impure{GlobalRand: true}, fn.Pkg().Name() + "." + name
	}
	return nil, ""
}

// reportDirectImpure emits the classic single-site diagnostics for an
// ambient read inside a simulation-visible package.
func reportDirectImpure(pass *Pass, call *ast.CallExpr, kind *Impure, detail string) {
	switch {
	case kind.TimeNow:
		pass.Reportf(call.Pos(), "%s in simulation-visible package %q: wall-clock time must not influence simulated state (thread cycles or a seeded source instead)", detail, pass.Pkg.Path())
	case kind.Getenv:
		pass.Reportf(call.Pos(), "%s in simulation-visible package %q: environment reads make runs machine-dependent (plumb configuration explicitly; RH_ENGINE is the one allowed entrypoint)", detail, pass.Pkg.Path())
	case kind.GlobalRand:
		pass.Reportf(call.Pos(), "global %s in simulation-visible package %q: the process-global generator is shared, unseeded state (use a per-task seeded generator)", detail, pass.Pkg.Path())
	}
}

// isAllowedEnvRead reports whether the env read names an allowlisted
// variable via a string constant.
func isAllowedEnvRead(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return allowedEnvVars[constant.StringVal(tv.Value)]
}
