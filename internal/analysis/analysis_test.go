package analysis

// The golden-diagnostic harness, following the x/tools analysistest
// convention: testdata packages carry `// want "regexp"` comments on the
// lines where a diagnostic is expected; the test fails on any unexpected
// diagnostic and any unmatched expectation. Directories named testdata
// are invisible to the go tool, so these packages never build as part of
// the module and rhlint's own tree run never sees them.

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the expectation regexps from a want tail; both
// double-quoted and backquoted arguments are accepted, as in
// x/tools/go/analysis/analysistest.
var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)$")
var wantArgRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// testAnalyzer runs one analyzer over the testdata package in dir,
// type-checked under pkgpath (whose last element drives the
// simulation-visible gating), and compares diagnostics against the
// want comments.
func testAnalyzer(t *testing.T, a *Analyzer, dir, pkgpath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	// Export data for every import (and its deps) via go list.
	imports := map[string]bool{}
	ifset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(ifset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports[p] = true
		}
	}
	l := newLoader(token.NewFileSet())
	if len(imports) > 0 {
		var pats []string
		for p := range imports {
			pats = append(pats, p)
		}
		sort.Strings(pats)
		pkgs, err := goList(dir, pats)
		if err != nil {
			t.Fatal(err)
		}
		l.addExports(pkgs)
	}
	pkg, err := l.typecheck(pkgpath, files, nil, "")
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := RunPackage(pkg, []*Analyzer{a}, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	compareWants(t, parseWants(t, files), ActiveOnly(diags))
}

// compareWants diffs actual diagnostics against want expectations keyed
// by "filename:line"; every diagnostic must match one expectation and
// every expectation must be consumed.
func compareWants(t *testing.T, wants map[string][]*regexp.Regexp, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		rest := wants[key][:0]
		for _, w := range wants[key] {
			if !matched && w.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			t.Errorf("%s: expected diagnostic matching %q, got none", k, w)
		}
	}
}

// parseWants scans the files' source text for want comments, keyed by
// "filename:line".
func parseWants(t *testing.T, files []string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", name, i+1)
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				expr := arg[1]
				if arg[2] != "" {
					expr = arg[2]
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", key, expr, err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

func TestMapIter(t *testing.T) {
	testAnalyzer(t, MapIter, filepath.Join("testdata", "mapiter", "sim"), "example.com/x/sim")
}

func TestMapIterIgnoresNonSimPackages(t *testing.T) {
	testAnalyzer(t, MapIter, filepath.Join("testdata", "mapiter", "notsim"), "example.com/x/util")
}

func TestWallClock(t *testing.T) {
	testAnalyzer(t, WallClock, filepath.Join("testdata", "wallclock", "sim"), "example.com/x/sim")
}

func TestHotAlloc(t *testing.T) {
	// hotalloc is annotation-gated, not package-gated: a non-sim path.
	testAnalyzer(t, HotAlloc, filepath.Join("testdata", "hotalloc", "hot"), "example.com/x/hot")
}

func TestSeedFlow(t *testing.T) {
	testAnalyzer(t, SeedFlow, filepath.Join("testdata", "seedflow", "sim"), "example.com/x/sim")
}

func TestMalformedDirectives(t *testing.T) {
	testAnalyzer(t, MapIter, filepath.Join("testdata", "directives", "sim"), "example.com/x/sim")
}

func TestSimVisiblePkg(t *testing.T) {
	for _, path := range []string{"repro", "repro/internal/sim", "repro/internal/memctrl", "example.com/x/stats"} {
		if !simVisiblePkg(path) {
			t.Errorf("simVisiblePkg(%q) = false, want true", path)
		}
	}
	for _, path := range []string{"repro/internal/store", "repro/internal/serve", "example.com/x/util"} {
		if simVisiblePkg(path) {
			t.Errorf("simVisiblePkg(%q) = true, want false", path)
		}
	}
}
