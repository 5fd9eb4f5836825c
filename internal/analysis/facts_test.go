package analysis

// Tests for the interprocedural layer: the multi-package facts fixture
// (testdata/facts: impure/allocating leaf -> clean middle -> flagged sim
// caller), gob round-tripping of every fact type, and driver parity —
// the standalone walk and the `go vet -vettool` protocol must emit
// identical diagnostics from identical facts.

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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
// store — the same walk the standalone driver performs.
func loadFactsFixture(t *testing.T) ([]Diagnostic, *FactStore, []string) {
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
	}
	return diags, facts, allFiles
}

func TestFactsFixtureStandalone(t *testing.T) {
	diags, facts, files := loadFactsFixture(t)
	compareWants(t, parseWants(t, files), ActiveOnly(diags))

	// Pin the fact propagation the wants depend on.
	const mid = "example.com/facts/mid"
	var imp Impure
	if !facts.get(mid, "When", &imp) || !imp.TimeNow {
		t.Errorf("mid.When: want Impure{TimeNow} fact, got %+v (found=%v)", imp, facts.get(mid, "When", &imp))
	}
	if facts.get(mid, "Logged", &Impure{}) {
		t.Errorf("mid.Logged: leaf-side allow should have stopped the Impure fact")
	}
	var alloc Allocates
	if !facts.get(mid, "Note", &alloc) || !strings.Contains(alloc.Why, "leaf.Describe") {
		t.Errorf("mid.Note: want Allocates fact naming leaf.Describe, got %+v", alloc)
	}
	if !facts.get(mid, "Fresh", &ReturnsDerivedPRNG{}) {
		t.Errorf("mid.Fresh: want ReturnsDerivedPRNG fact, got none")
	}
	if facts.get(mid, "Shared", &ReturnsDerivedPRNG{}) {
		t.Errorf("mid.Shared: shared-global accessor must not get ReturnsDerivedPRNG")
	}
}

// sampleFacts holds one fact of every type.
func sampleFacts() *FactStore {
	s := NewFactStore()
	s.put("example.com/a", "F", &Allocates{Why: "append at f.go:10"})
	s.put("example.com/a", "G", &Impure{TimeNow: true, Getenv: true, Why: "time.Now at g.go:3"})
	s.put("example.com/b", "T.M", &ReturnsDerivedPRNG{})
	return s
}

// TestFactStoreRoundTrip pins gob serialization for every fact type and
// the byte-determinism of Encode.
func TestFactStoreRoundTrip(t *testing.T) {
	s := sampleFacts()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("Encode is not deterministic")
	}

	r := NewFactStore()
	if err := r.Decode(data); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("round-trip lost facts: got %d, want 3", r.Len())
	}
	var alloc Allocates
	if !r.get("example.com/a", "F", &alloc) || alloc.Why != "append at f.go:10" {
		t.Errorf("Allocates round-trip: got %+v", alloc)
	}
	var imp Impure
	if !r.get("example.com/a", "G", &imp) || !imp.TimeNow || !imp.Getenv || imp.GlobalRand || imp.Why != "time.Now at g.go:3" {
		t.Errorf("Impure round-trip: got %+v", imp)
	}
	if !r.get("example.com/b", "T.M", &ReturnsDerivedPRNG{}) {
		t.Errorf("ReturnsDerivedPRNG round-trip: fact missing")
	}

	// The pre-fact stub wrote zero-byte files; they must stay readable.
	if err := NewFactStore().Decode(nil); err != nil {
		t.Errorf("Decode(nil) = %v, want nil", err)
	}
}

// FuzzDecodeFacts covers the vetx fact files rhlint reads from a unit's
// dependencies under go vet -vettool, outside bytes: Decode never
// panics, every fact it accepts reads back through get, and an accepted
// store re-encodes to bytes that decode and re-encode identically.
func FuzzDecodeFacts(f *testing.F) {
	seed, err := sampleFacts().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewFactStore()
		if err := s.Decode(data); err != nil {
			return
		}
		for k, f := range s.m {
			got := reflect.New(reflect.TypeOf(f).Elem()).Interface().(Fact)
			if !s.get(k.pkg, k.obj, got) || !reflect.DeepEqual(got, f) {
				t.Fatalf("fact %q.%q %T does not read back: got %+v, want %+v", k.pkg, k.obj, f, got, f)
			}
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("encode accepted facts: %v", err)
		}
		again := NewFactStore()
		if err := again.Decode(enc); err != nil {
			t.Fatalf("re-encoded facts rejected: %v", err)
		}
		if again.Len() != s.Len() {
			t.Fatalf("re-decoding kept %d of %d facts", again.Len(), s.Len())
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding changed the bytes:\n%q\nvs\n%q", enc, enc2)
		}
	})
}

// diagLine normalizes one driver output line to "base.go:line: message",
// or "" for non-diagnostic lines (package headers, summaries).
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

// TestFactsFixtureVettoolParity copies the fixture into a temp module,
// builds rhlint, and runs it both standalone and as `go vet -vettool`.
// The diagnostic streams must be identical — which also pins that vetx
// fact files round-trip through the go command: the sim findings exist
// only if the leaf and mid facts survived the per-unit handoff.
func TestFactsFixtureVettoolParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs go vet")
	}
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

	bin := filepath.Join(tmp, "rhlint")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/rhlint")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rhlint: %v\n%s", err, out)
	}

	runIn := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = tmp
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); err != nil && !ok {
			t.Fatalf("%s %v: %v\n%s", name, args, err, buf.String())
		}
		if err == nil {
			t.Fatalf("%s %v: exit 0, want findings\n%s", name, args, buf.String())
		}
		return buf.String()
	}

	standalone := normalizeDiagLines(runIn(bin, "./..."))
	vettool := normalizeDiagLines(runIn("go", "vet", "-vettool="+bin, "./..."))

	if len(standalone) == 0 {
		t.Fatalf("standalone run produced no diagnostics")
	}
	if fmt.Sprint(standalone) != fmt.Sprint(vettool) {
		t.Errorf("driver outputs differ:\nstandalone:\n  %s\nvettool:\n  %s",
			strings.Join(standalone, "\n  "), strings.Join(vettool, "\n  "))
	}
	for _, want := range []string{"mid.When reads wall-clock time", "mid.Note allocates in hotpath Hot", "passed across goroutine boundary"} {
		found := false
		for _, line := range standalone {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in:\n  %s", want, strings.Join(standalone, "\n  "))
		}
	}
}
