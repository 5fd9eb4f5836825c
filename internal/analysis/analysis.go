// Package analysis is rhlint: a suite of static analyzers that enforce
// the repository's determinism and hot-path allocation discipline at
// compile time, before the runtime gates (the differential corpus, the
// scheduler-equivalence sweep, the shard-merge invariance tests) ever
// run.
//
// The suite is a self-contained reimplementation of the
// golang.org/x/tools/go/analysis analyzer shape on the standard library
// alone — the repository carries no module dependencies, so the real
// framework cannot be imported. The surface is deliberately the same:
// an Analyzer holds a Name, a Doc, and a Run(*Pass); cmd/rhlint drives
// the suite either standalone (rhlint ./...) or as a `go vet -vettool`
// (the unitchecker .cfg protocol, see unit.go).
//
// Findings are suppressed with an annotation that must carry a reason:
//
//	//rhlint:allow mapiter(per-key in-place rewrite, order-independent)
//
// placed on the offending line or the line directly above it. A bare
// //rhlint:allow without analyzer name or reason is itself a diagnostic.
// Functions opt into the hotalloc analyzer with //rhlint:hotpath in
// their doc comment. docs/LINT.md documents the grammar and catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one rhlint analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rhlint:allow annotations.
	Name string
	// Doc is the one-paragraph catalog entry (`rhlint help`).
	Doc string
	// Run reports findings on one package through pass.Reportf.
	Run func(*Pass) error
	// FactTypes lists the fact types the analyzer exports and imports
	// (see facts.go). An analyzer with facts is run over dependency
	// packages too — fact-only, diagnostics discarded — so its facts
	// exist by the time a dependent package needs them.
	FactTypes []Fact
}

// Analyzers returns the full suite in catalog order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, WallClock, HotAlloc, SeedFlow}
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the cross-package fact store the driver threads through
	// the build graph; nil in fact-free runs (see facts.go).
	Facts *FactStore

	dirs   *directives
	report func(Diagnostic)
}

// SuppressedAt reports whether an //rhlint:allow directive for this
// pass's analyzer covers pos. The fact analyzers consult it so a
// reasoned allow at a leaf site (an amortized append, the RH_ENGINE
// read) stops the fact from propagating and poisoning every caller.
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	if p.dirs == nil {
		return false
	}
	_, ok := p.dirs.reasonFor(Diagnostic{Analyzer: p.Analyzer.Name, Pos: p.Fset.Position(pos)})
	return ok
}

// A Diagnostic is one finding. Suppressed is the //rhlint:allow reason
// when a directive covers the finding; drivers print only unsuppressed
// diagnostics but -json exposes both.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file is a _test.go file. The
// determinism analyzers skip test files: tests do not produce published
// results, and the runtime suites (differential corpus, shard-merge
// invariance) already pin their behavior.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// simVisible names the packages whose state reaches published results:
// any nondeterminism here escapes into result bytes. The module root
// ("repro") re-exports the experiment API and counts too.
var simVisible = map[string]bool{
	"sim": true, "memctrl": true, "cpu": true, "cache": true,
	"dram": true, "faultmodel": true, "attack": true, "mitigation": true,
	"engine": true, "core": true, "stats": true,
	// Not named by the original task list but equally simulation-visible:
	// the chip population, trace synthesis, ECC model, and measurement
	// primitives all feed result bytes.
	"chips": true, "trace": true, "ecc": true, "charact": true,
}

// simVisiblePkg gates the determinism analyzers by import path.
func simVisiblePkg(path string) bool {
	if path == "repro" {
		return true
	}
	return simVisible[path[strings.LastIndex(path, "/")+1:]]
}

// --- rhlint directives ------------------------------------------------------

const (
	directivePrefix  = "//rhlint:"
	hotpathDirective = "//rhlint:hotpath"
)

// allowRe matches //rhlint:allow name(reason); the reason is mandatory
// and free-form (no newline). Trailing text after the closing paren is
// tolerated so the annotation can share a comment with prose.
var allowRe = regexp.MustCompile(`^//rhlint:allow ([a-z]+)\(([^)]+)\)`)

// directives is the per-file suppression index of one package.
type directives struct {
	fset *token.FileSet
	// allow maps filename -> line -> analyzer name -> reason for
	// suppressions on that line. A directive suppresses its own line
	// and the line below it, so it works both as a trailing comment and
	// on its own line above the finding.
	allow map[string]map[int]map[string]string
	// malformed collects unparseable //rhlint: comments as driver
	// diagnostics (analyzer "rhlint"); they are not suppressible.
	malformed []Diagnostic
}

func scanDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{fset: fset, allow: map[string]map[int]map[string]string{}}
	names := map[string]bool{}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				bad := func(format string, args ...any) {
					d.malformed = append(d.malformed, Diagnostic{
						Analyzer: "rhlint",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf(format, args...),
					})
				}
				if m == nil {
					bad("malformed rhlint directive %q: want //rhlint:hotpath or //rhlint:allow <analyzer>(<reason>)", text)
					continue
				}
				if !names[m[1]] {
					bad("rhlint:allow names unknown analyzer %q (have mapiter, wallclock, hotalloc, seedflow)", m[1])
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad("rhlint:allow %s() has an empty reason; every suppression must say why", m[1])
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := d.allow[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]string{}
					d.allow[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]string{}
					}
					byLine[line][m[1]] = strings.TrimSpace(m[2])
				}
			}
		}
	}
	return d
}

// reasonFor returns the allow reason covering the finding — a directive
// on its line or the line above, which indexed both lines — and whether
// one exists.
func (d *directives) reasonFor(diag Diagnostic) (string, bool) {
	byLine := d.allow[diag.Pos.Filename]
	if byLine == nil {
		return "", false
	}
	reason, ok := byLine[diag.Pos.Line][diag.Analyzer]
	return reason, ok
}

// isHotpath reports whether the function declaration opts into hotalloc.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// --- driver -----------------------------------------------------------------

// A Package is one loaded, type-checked compilation unit. FactsOnly
// marks a dependency loaded solely so its facts exist before its
// dependents are analyzed; drivers discard its diagnostics — the
// standalone equivalent of the vet protocol's VetxOnly units.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	FactsOnly bool
}

// RunPackage runs the analyzers over the package, applies the allow
// directives, and returns every diagnostic sorted by position —
// suppressed findings included, carrying their allow reason, so -json
// can expose them; callers that print filter with ActiveOnly.
// Malformed directives are reported once per package. facts may be nil
// for a fact-free run; with a store, facts of dependency packages must
// already be present (the drivers walk the build graph in dependency
// order) and this package's facts are added to the store.
func RunPackage(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	dirs := scanDirectives(pkg.Fset, pkg.Files)
	diags := append([]Diagnostic(nil), dirs.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			dirs:      dirs,
		}
		pass.report = func(d Diagnostic) {
			if reason, ok := dirs.reasonFor(d); ok {
				d.Suppressed = reason
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// ActiveOnly filters out the diagnostics an //rhlint:allow covers.
func ActiveOnly(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Suppressed == "" {
			out = append(out, d)
		}
	}
	return out
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// calleeFunc resolves the called function object of a call expression,
// or nil (func-typed variables, method values through interfaces, etc.).
func calleeFunc(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// inspectWithStack walks the file keeping the ancestor stack, calling fn
// with the node pushed last (fn sees n == stack[len(stack)-1]).
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			// The walk still descends; analyzers here never prune.
			return true
		}
		return true
	})
}

// enclosingFuncBody returns the innermost function body on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}
