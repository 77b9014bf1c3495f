// Package mmapalias enforces the mapped-memory contract from
// ARCHITECTURE's "replace-never-mutate" rule: slices decoded through a
// persist.MReader (and the data of internal/mmap files) may alias a
// read-only OS mapping, so they must never be written through, and the
// unsafe reinterpretation that produces them stays confined to the two
// loader-support packages. Concretely:
//
//  1. importing "unsafe" is allowed only in internal/persist and
//     internal/mmap;
//  2. no element write, copy-into, append-to or clear of a slice derived
//     from a persist.MReader / persist.MappedFile / mmap.File payload;
//  3. outside the loader packages (persist, mmap and the structure
//     packages that decode sections), a mapped-derived slice must not be
//     stored into a struct field, where it could outlive the mapping.
//
// The analysis is intraprocedural: a derived slice is tracked through
// local assignments, re-slicings and conversions within one function.
package mmapalias

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mmapalias",
	Doc:  "forbid writes through (and escaping stores of) slices aliasing mapped index memory, and confine unsafe to the loader-support packages",
	Run:  run,
}

// unsafeOK lists the packages allowed to import unsafe: the two that
// implement the aliasing itself.
var unsafeOK = []string{"internal/persist", "internal/mmap"}

// loaderOK lists the packages allowed to keep mapped-derived slices in
// struct fields: the loader-support packages plus every structure
// package whose Read decodes sections into long-lived directories. Their
// lifetime is managed by Engine.Close via the mapping finalizer.
var loaderOK = []string{
	"internal/persist", "internal/mmap", "internal/bitvec", "internal/bp",
	"internal/wavelet", "internal/fmindex", "internal/tags",
	"internal/xmltree", "internal/pssm", "internal/core",
}

func pathIn(path string, list []string) bool {
	path, _, _ = strings.Cut(path, " ")
	for _, s := range list {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !pathIn(pass.Pkg.Path(), unsafeOK) {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"unsafe"` {
					pass.Reportf(imp.Pos(), "unsafe is confined to internal/persist and internal/mmap; mapped-memory reinterpretation must not spread")
				}
			}
		}
	}
	isLoader := pathIn(pass.Pkg.Path(), loaderOK)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, isLoader)
		}
	}
	return nil
}

// checkFunc runs the taint pass over one function body (function
// literals inside it share the same scope and taint set).
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, isLoader bool) {
	t := &tainter{info: pass.TypesInfo, tainted: map[types.Object]bool{}}
	// Propagate to a fixed point: assignments can forward taint in
	// source order or through loop-carried variables.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if t.expr(s.Rhs[i]) {
							changed = t.mark(lhs) || changed
						}
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i, name := range s.Names {
						if t.expr(s.Values[i]) {
							changed = t.mark(name) || changed
						}
					}
				}
			}
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok && t.expr(idx.X) {
					pass.Reportf(idx.Pos(), "write through slice derived from mapped index memory (persist.MReader payloads are read-only)")
				}
				if !isLoader && len(s.Lhs) == len(s.Rhs) && t.expr(s.Rhs[i]) {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && isFieldStore(pass.TypesInfo, sel) {
						pass.Reportf(s.Pos(), "mapped-derived slice stored into a struct field outside the loader packages; it must not outlive Engine.Close")
					}
				}
			}
		case *ast.CompositeLit:
			if isLoader {
				return true
			}
			if _, ok := pass.TypesInfo.TypeOf(s).Underlying().(*types.Struct); !ok {
				return true
			}
			for _, el := range s.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if t.expr(v) {
					pass.Reportf(v.Pos(), "mapped-derived slice stored into a struct literal outside the loader packages; it must not outlive Engine.Close")
				}
			}
		case *ast.CallExpr:
			if name, ok := builtinName(pass.TypesInfo, s.Fun); ok {
				switch name {
				case "copy", "append", "clear":
					if len(s.Args) > 0 && t.expr(s.Args[0]) {
						pass.Reportf(s.Pos(), "%s on a slice derived from mapped index memory (persist.MReader payloads are read-only)", name)
					}
				}
			}
		}
		return true
	})
}

func builtinName(info *types.Info, fun ast.Expr) (string, bool) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return "", false
	}
	return id.Name, true
}

// isFieldStore reports whether sel resolves to a struct field (as
// opposed to a package-level var accessed through a package selector).
func isFieldStore(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

type tainter struct {
	info    *types.Info
	tainted map[types.Object]bool
}

// mark taints the object behind an assignable expression, reporting
// whether the set grew.
func (t *tainter) mark(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.info.Defs[id]
	if obj == nil {
		obj = t.info.Uses[id]
	}
	if obj == nil || t.tainted[obj] {
		return false
	}
	t.tainted[obj] = true
	return true
}

// expr reports whether e evaluates to a mapped-derived slice.
func (t *tainter) expr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := t.info.Uses[e]
		return obj != nil && t.tainted[obj]
	case *ast.ParenExpr:
		return t.expr(e.X)
	case *ast.SliceExpr:
		return t.expr(e.X)
	case *ast.CallExpr:
		if t.isMappedPayloadCall(e) {
			return true
		}
		// Conversion of a tainted slice keeps the aliasing.
		if tv, ok := t.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.expr(e.Args[0])
		}
	}
	return false
}

// isMappedPayloadCall reports whether call is a slice-returning method
// of *persist.MReader / *persist.MappedFile, or mmap.(*File).Data — the
// taint sources.
func (t *tainter) isMappedPayloadCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := t.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	sig, ok := s.Obj().Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	if _, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice); !isSlice {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case strings.HasSuffix(pkg, "internal/persist") && (name == "MReader" || name == "MappedFile"):
		return true
	case strings.HasSuffix(pkg, "internal/mmap") && name == "File" && s.Obj().Name() == "Data":
		return true
	}
	return false
}
