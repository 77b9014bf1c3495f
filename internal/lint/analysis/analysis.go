// Package analysis is a minimal, dependency-free skeleton of the
// golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// carries no module dependencies by policy, so the vendored-x/tools route
// is out; this package keeps just the parts the sxsivet analyzers need —
// a named analyzer with a Run function, a per-package Pass bundling the
// syntax trees and type information, and positioned diagnostics — while
// the go vet -vettool entry point lives in internal/lint/checker.
//
// Analyzers here are purely intraprocedural and fact-free: each Run sees
// one package at a time. That is enough for the engine's contracts, which
// are all expressible as "inside this function / this package, this shape
// of code must (not) appear".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sxsivet:ignore comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the contract enforced.
	Doc string

	// Match restricts the analyzer to packages for which it returns
	// true (by import path). A nil Match runs everywhere. Drivers apply
	// Match; tests may call Run directly to analyze fixture packages
	// regardless of their path.
	Match func(pkgPath string) bool

	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Pass bundles everything an analyzer may inspect about one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install it.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// PathIn returns a Match function accepting exactly the given import
// paths. Vet configs for test variants decorate the path with a
// bracketed suffix ("p [p.test]"); the decoration is stripped before
// matching so the internal-test view of a package keeps its scope.
func PathIn(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(pkgPath string) bool {
		for i := 0; i < len(pkgPath); i++ {
			if pkgPath[i] == ' ' {
				pkgPath = pkgPath[:i]
				break
			}
		}
		return set[pkgPath]
	}
}
