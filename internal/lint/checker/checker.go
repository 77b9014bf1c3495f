// Package checker drives the sxsivet analyzers over type-checked
// packages. Vet implements the `go vet -vettool` unit-checker protocol:
// cmd/go hands the tool a JSON config per package, with export data for
// every import already built, and the package is type-checked from that
// export data with the standard library's gc importer, so a run costs
// parsing plus type-checking of the target package only. ExportData
// resolves export data through `go list -export` for the analysistest
// harness, which type-checks fixture packages the same way.
package checker

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Target describes one package to analyze.
type Target struct {
	ImportPath string
	GoFiles    []string
	// Exports maps an import path to its export-data file. Paths absent
	// from the map fail to import, which surfaces as a typecheck error.
	Exports map[string]string
	// ImportMap renames imports (vet configs use it for test variants);
	// may be nil.
	ImportMap map[string]string
	GoVersion string
}

// Finding is one reported diagnostic with its position resolved, ready
// for printing by a driver.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyze parses and type-checks the target and runs every analyzer
// whose Match accepts the package. Diagnostics are suppression-filtered
// and sorted by position. Findings in _test.go files are dropped: the
// contracts guard engine code, and test helpers loop and allocate in
// ways that are bounded by the test harness itself.
func Analyze(t Target, analyzers []*analysis.Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := typecheck(fset, files, t)
	if err != nil {
		return nil, err
	}
	diags := RunAnalyzers(fset, files, pkg, info, t.ImportPath, analyzers)
	var out []Finding
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		out = append(out, Finding{Pos: pos, Analyzer: d.Analyzer, Message: d.Message})
	}
	return out, nil
}

// RunAnalyzers runs the matching analyzers over an already-typechecked
// package and returns the suppression-filtered, sorted diagnostics.
// Exported separately so the analysistest harness can feed fixture
// packages through the exact pipeline Vet uses.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, importPath string, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(importPath) {
			continue
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pos:      files[0].Pos(),
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	sup, bad := suppressions(fset, files)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

func typecheck(fset *token.FileSet, files []*ast.File, t Target) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if f, ok := t.Exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}
	gc := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := t.ImportMap[path]; ok {
			path = mapped
		}
		return gc.Import(path)
	})
	conf := types.Config{Importer: imp, GoVersion: goVersion(t.GoVersion)}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// goVersion normalizes cfg Go versions ("go1.24.0", "1.24") to the
// "go1.N" form types.Config accepts, dropping anything unparseable.
func goVersion(v string) string {
	if v == "" {
		return ""
	}
	if !strings.HasPrefix(v, "go") {
		v = "go" + v
	}
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
