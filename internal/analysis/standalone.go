package analysis

// The driver behind `rhx lint [-json] [packages]`: it loads the
// patterns (default ./...), walks the build graph dependencies-first so
// cross-package facts are in memory before a dependent needs them, runs
// the suite, and prints findings.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonDiagnostic is the -json wire form of one finding. Suppressed
// carries the //rhlint:allow reason when a directive covers the
// finding; such findings do not affect the exit code but are exposed
// so tooling can audit the suppression inventory.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed string `json:"suppressed,omitempty"`
}

// Standalone runs the suite over the patterns, resolved in dir, and
// returns the process exit code: 0 clean, 1 findings, 2 operational
// error. Without -json it prints each finding on stdout, or
// "rhx lint: clean" when there is none. With -json the full diagnostic
// set (suppressed included) is printed as a JSON array on stdout and a
// one-line summary on stderr.
func Standalone(dir string, args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "help" || a == "-h" || a == "--help" || a == "-help":
			printHelp(stdout)
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "rhx lint: unknown flag %s (want [-json] [packages])\n", a)
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := Load(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "rhx lint: %v\n", err)
		return 2
	}
	facts := NewFactStore()
	var all []Diagnostic
	analyzed := 0
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, Analyzers(), facts)
		if err != nil {
			fmt.Fprintf(stderr, "rhx lint: %v\n", err)
			return 2
		}
		if pkg.FactsOnly {
			continue // dependency walked for facts alone
		}
		analyzed++
		all = append(all, diags...)
	}
	active := ActiveOnly(all)
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(all))
		for _, d := range all {
			out = append(out, jsonDiagnostic{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Column:     d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "rhx lint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "rhx lint: %d finding(s), %d suppressed, %d package(s), %d fact(s)\n",
			len(active), len(all)-len(active), analyzed, facts.Len())
	} else {
		for _, d := range active {
			fmt.Fprintln(stdout, d.String())
		}
		if len(active) == 0 {
			fmt.Fprintln(stdout, "rhx lint: clean")
		}
	}
	if len(active) > 0 {
		return 1
	}
	return 0
}

func printHelp(w io.Writer) {
	fmt.Fprintf(w, `rhx lint runs rhlint, the repository's determinism and hot-path
allocation suite, over the packages (default ./...). See docs/LINT.md.

Usage:
  rhx lint [-json] [packages]

Exit status: 0 clean, 1 findings, 2 an error.

-json prints machine-readable diagnostics (file/line/column/analyzer/
message, plus suppressed findings with their allow reason) and a
summary line on stderr.

The suite is interprocedural: per-function facts (Allocates, Impure,
ReturnsDerivedPRNG) are computed for every module package and kept in
memory across one dependencies-first walk, so a hotpath function
calling an un-annotated helper that allocates — or a sim package
reaching time.Now through two layers of calls — is flagged at the
boundary with the offending path named.

Suppress a finding with an annotation carrying a reason, on the line or
the line above:
  //rhlint:allow mapiter(keys sorted by the caller)
An allow on a leaf allocation or ambient read also stops its fact, so
one reasoned allow clears the callers above it.
Opt a function into hotalloc with //rhlint:hotpath in its doc comment.

Analyzers:
`)
	for _, a := range Analyzers() {
		fmt.Fprintf(w, "\n%s:\n%s\n", a.Name, a.Doc)
	}
}
