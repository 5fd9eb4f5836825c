package analysis

// Tests for the interprocedural layer: the multi-package facts fixture
// (testdata/facts: impure/allocating leaf -> clean middle -> flagged sim
// caller), run through the in-memory harness below and through
// Standalone, the walk behind `rhx lint`; the two must emit identical
// diagnostics.

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// factsFixture names the fixture packages in dependency order.
var factsFixture = []struct{ dir, path string }{
	{filepath.Join("testdata", "facts", "leaf"), "example.com/facts/leaf"},
	{filepath.Join("testdata", "facts", "mid"), "example.com/facts/mid"},
	{filepath.Join("testdata", "facts", "sim"), "example.com/facts/sim"},
}

// loadFactsFixture type-checks the fixture packages against each other
// (shared loader) and runs the full suite over them with a shared fact
// store: a test-only reference for the walk Standalone performs. It
// returns the diagnostics, the store, the fixture's files, and its
// packages in factsFixture order.
func loadFactsFixture(t *testing.T) ([]Diagnostic, *FactStore, []string, []*Package) {
	t.Helper()
	var allFiles []string
	imports := map[string]bool{}
	ifset := token.NewFileSet()
	perPkg := make([][]string, len(factsFixture))
	for i, fx := range factsFixture {
		entries, err := os.ReadDir(fx.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			name := filepath.Join(fx.dir, e.Name())
			perPkg[i] = append(perPkg[i], name)
			allFiles = append(allFiles, name)
			f, err := parser.ParseFile(ifset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(p, "example.com/") {
					imports[p] = true
				}
			}
		}
		sort.Strings(perPkg[i])
	}

	l := newLoader(token.NewFileSet())
	if len(imports) > 0 {
		var pats []string
		for p := range imports {
			pats = append(pats, p)
		}
		sort.Strings(pats)
		pkgs, err := goList(".", pats)
		if err != nil {
			t.Fatal(err)
		}
		l.addExports(pkgs)
	}

	facts := NewFactStore()
	var diags []Diagnostic
	var pkgs []*Package
	for i, fx := range factsFixture {
		pkg, err := l.typecheck(fx.path, perPkg[i], nil, "")
		if err != nil {
			t.Fatalf("typecheck %s: %v", fx.dir, err)
		}
		ds, err := RunPackage(pkg, Analyzers(), facts)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
		pkgs = append(pkgs, pkg)
	}
	return diags, facts, allFiles, pkgs
}

func TestFactsFixtureStandalone(t *testing.T) {
	diags, facts, files, pkgs := loadFactsFixture(t)
	compareWants(t, parseWants(t, files), ActiveOnly(diags))

	// Pin the fact propagation the wants depend on, looking each fact up
	// by the function mid declares.
	mid := func(name string) *types.Func { return pkgs[1].Types.Scope().Lookup(name).(*types.Func) }
	if imp, ok := facts.impure[mid("When")]; !ok || !imp.TimeNow {
		t.Errorf("mid.When: want Impure{TimeNow} fact, got %+v (found=%v)", imp, ok)
	}
	if _, ok := facts.impure[mid("Logged")]; ok {
		t.Errorf("mid.Logged: leaf-side allow should have stopped the Impure fact")
	}
	if why, ok := facts.allocates[mid("Note")]; !ok || !strings.Contains(why, "leaf.Describe") {
		t.Errorf("mid.Note: want Allocates fact naming leaf.Describe, got %q (found=%v)", why, ok)
	}
	if !facts.derived[mid("Fresh")] {
		t.Errorf("mid.Fresh: want ReturnsDerivedPRNG fact, got none")
	}
	if facts.derived[mid("Shared")] {
		t.Errorf("mid.Shared: shared-global accessor must not get ReturnsDerivedPRNG")
	}
}

// normalizeDiagLines keeps the diagnostic lines of out, each reduced to
// "base.go:line: analyzer: message" so the temp module's paths and the
// testdata paths compare equal, and sorts them.
var diagLineRe = regexp.MustCompile(`([^/\s]+\.go):(\d+):\d+: (.+)$`)

func normalizeDiagLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if m := diagLineRe.FindStringSubmatch(line); m != nil {
			lines = append(lines, m[1]+":"+m[2]+": "+m[3])
		}
	}
	sort.Strings(lines)
	return lines
}

// TestFactsFixtureWalk copies the fixture into a temp module and lints
// it with Standalone over ./..., as `rhx lint` does. The sim findings
// exist only if the leaf and mid facts reached the sim package through
// the walk, and the findings must equal the in-memory harness's line for
// line.
func TestFactsFixtureWalk(t *testing.T) {
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module example.com/facts\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, fx := range factsFixture {
		name := filepath.Base(fx.dir)
		if err := os.MkdirAll(filepath.Join(tmp, name), 0o777); err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(filepath.Join(fx.dir, name+".go"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, name, name+".go"), src, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := Standalone(tmp, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("Standalone exit %d, want 1 (findings)\n%s%s", code, stdout.String(), stderr.String())
	}
	walk := normalizeDiagLines(stdout.String())

	diags, _, _, _ := loadFactsFixture(t)
	var harness []string
	for _, d := range ActiveOnly(diags) {
		harness = append(harness, d.String())
	}
	ref := normalizeDiagLines(strings.Join(harness, "\n"))

	if fmt.Sprint(walk) != fmt.Sprint(ref) {
		t.Errorf("walk and harness differ:\nwalk:\n  %s\nharness:\n  %s",
			strings.Join(walk, "\n  "), strings.Join(ref, "\n  "))
	}
	for _, want := range []string{"mid.When reads wall-clock time", "mid.Note allocates in hotpath Hot", "passed across goroutine boundary"} {
		found := false
		for _, line := range walk {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in:\n  %s", want, strings.Join(walk, "\n  "))
		}
	}
}
