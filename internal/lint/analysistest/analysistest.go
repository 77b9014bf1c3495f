// Package analysistest runs sxsivet analyzers over fixture packages and
// compares the diagnostics against expectations written in the fixtures
// themselves, in the style of golang.org/x/tools analysistest (which is
// not vendored here): a comment
//
//	// want `regexp` `another regexp`
//
// on a line declares that the analyzers must report diagnostics on that
// line whose messages match the given regular expressions, one each.
// Lines without a want comment must produce no diagnostics. Block
// comments (/* want `re` */) work too, which allows an expectation to
// share a line with a line comment under test (e.g. a malformed
// suppression directive).
//
// Fixtures are plain directories of .go files (kept under testdata/ so
// the repo build ignores them). Run poses the fixture as an arbitrary
// import path, because every sxsivet analyzer scopes itself by package
// path; imports are resolved against the real repo packages via
// `go list -export`, so a fixture can exercise cross-package taint
// (e.g. a slice obtained from a persist.MReader).
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/checker"
)

// want is one expected diagnostic: a regexp anchored to a file and line.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run analyzes the fixture package in dir as if its import path were
// importPath and checks the diagnostics against the want comments.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)

	wants, imports, err := parseFixtures(files)
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		exports, err = checker.ExportData(imports...)
		if err != nil {
			t.Fatalf("resolving fixture imports: %v", err)
		}
	}
	findings, err := checker.Analyze(checker.Target{
		ImportPath: importPath,
		GoFiles:    files,
		Exports:    exports,
		GoVersion:  "go1.24",
	}, analyzers)
	if err != nil {
		t.Fatalf("analyzing %s: %v", dir, err)
	}

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected diagnostic (%s): %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.rx)
		}
	}
}

// claim marks the first unmatched want covering the finding's position.
func claim(wants []*want, f checker.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE matches a want directive inside a comment's text; quotedRE then
// pulls out each double-quoted or backquoted pattern.
var (
	wantRE   = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)
	quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// parseFixtures extracts the want expectations and the union of imports
// from the fixture files.
func parseFixtures(files []string) ([]*want, []string, error) {
	fset := token.NewFileSet()
	var wants []*want
	seen := map[string]bool{}
	var imports []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing fixture: %v", err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, nil, err
			}
			if path != "unsafe" && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", name, pos.Line, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						return nil, nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", name, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	sort.Strings(imports)
	return wants, imports, nil
}
