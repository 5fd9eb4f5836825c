package analysis

// Package loading for the walk and the analysistest harness. The real go/analysis stack rides on go/packages; this
// reimplementation shells out to `go list -export` for the build graph
// and export data (compiled type information), then type-checks only
// the packages under analysis from source. Everything below is standard
// library: go/importer's gc importer reads the export files the go
// command already produced, so no network and no module downloads are
// involved.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// listPkg is the subset of `go list -json` the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// goList runs `go list -deps -export -json` on the patterns in dir and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Imports,ImportMap,Export,DepOnly,Standard,Module,Error",
		"--",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&out)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader type-checks packages against the export data of their
// dependencies, or against packages it already checked from source —
// which is how the multi-package fact fixtures (fake import paths, no
// export data) resolve their intra-fixture imports.
type loader struct {
	fset    *token.FileSet
	exports map[string]string         // package path -> export data file
	typed   map[string]*types.Package // package path -> source-checked package
	gc      types.Importer
}

func newLoader(fset *token.FileSet) *loader {
	l := &loader{fset: fset, exports: map[string]string{}, typed: map[string]*types.Package{}}
	l.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

func (l *loader) addExports(pkgs []*listPkg) {
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
}

// mapImporter applies one package's vendor/import map, prefers
// source-checked packages, then delegates to the gc importer.
type mapImporter struct {
	m     map[string]string
	typed map[string]*types.Package
	gc    types.Importer
}

func (mi mapImporter) Import(path string) (*types.Package, error) {
	if real, ok := mi.m[path]; ok {
		path = real
	}
	if pkg, ok := mi.typed[path]; ok {
		return pkg, nil
	}
	return mi.gc.Import(path)
}

// typecheck parses and checks one package from source. files are
// absolute paths; goVersion may be empty.
func (l *loader) typecheck(path string, files []string, importMap map[string]string, goVersion string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := newInfo()
	conf := &types.Config{
		Importer:  mapImporter{m: importMap, typed: l.typed, gc: l.gc},
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, err
	}
	l.typed[path] = tpkg
	return &Package{Path: path, Fset: l.fset, Files: asts, Types: tpkg, Info: info}, nil
}

// Load lists the patterns in dir and type-checks every matched package
// — plus, so cross-package facts exist no matter which subset of the
// module the patterns name, every non-standard dependency. Packages
// come back in dependency (topological) order, dependencies first;
// dependency-only packages are marked FactsOnly, and the walk runs the
// analyzers over them for their facts while discarding their
// diagnostics. The standard library is never analyzed: it is imported
// from export data, which carries types but no function bodies, so no
// fact can be computed for it; std knowledge lives in curated analyzer
// tables instead.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := newLoader(fset)
	l.addExports(pkgs)

	selected := map[string]*listPkg{}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		selected[p.ImportPath] = p
	}

	// Topological order (dependencies first) over the selected set, with
	// deterministic tie-breaking by import path.
	var order []*listPkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *listPkg)
	visit = func(p *listPkg) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, imp := range deps {
			if real, ok := p.ImportMap[imp]; ok {
				imp = real
			}
			if dep, ok := selected[imp]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	roots := make([]string, 0, len(selected))
	//rhlint:allow mapiter(roots are sorted before use)
	for path := range selected {
		roots = append(roots, path)
	}
	sort.Strings(roots)
	for _, path := range roots {
		visit(selected[path])
	}

	var out []*Package
	for _, p := range order {
		var files []string
		for _, lists := range [][]string{p.GoFiles, p.CgoFiles} {
			for _, f := range lists {
				files = append(files, join(p.Dir, f))
			}
		}
		if len(files) == 0 {
			continue
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + strings.TrimPrefix(p.Module.GoVersion, "go")
		}
		pkg, err := l.typecheck(p.ImportPath, files, p.ImportMap, goVersion)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		pkg.FactsOnly = p.DepOnly
		out = append(out, pkg)
	}
	return out, nil
}

func join(dir, file string) string {
	if strings.HasPrefix(file, "/") {
		return file
	}
	return dir + string(os.PathSeparator) + file
}
