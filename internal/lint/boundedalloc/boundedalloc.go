// Package boundedalloc enforces the capped-allocation contract from the
// persistence layer's hardening (PR 1): a `make` whose size flows from a
// length read off disk (persist.MReader integer reads)
// must be validated first — otherwise one corrupt length field turns
// into an attacker-sized allocation before the first byte of payload is
// checked.
//
// A length is considered validated once, before the make, it is
//   - compared in an if-condition (the usual `if n > cap { return
//     ErrCorrupt }` guard),
//   - passed into a bounds-checking helper (a callee whose name contains
//     need/check/valid/bound/cap), or
//   - clamped through the min builtin with an untainted operand.
//
// The analysis is intraprocedural and flow-approximate: validation must
// merely precede the allocation in source order within the function.
package boundedalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "boundedalloc",
	Doc:  "require make sizes derived from on-disk length fields to pass a bound check before allocating",
	Run:  run,
}

// intReaders are the integer-reading methods of the persist decoder
// whose results are untrusted on-disk lengths.
var intReaders = map[string]bool{
	"Int": true, "Int32": true, "Uint32": true, "Uint64": true, "Byte": true,
}

// validatorSubstrings mark bounds-checking helpers by name.
var validatorSubstrings = []string{"need", "check", "valid", "bound", "cap", "len"}

func run(pass *analysis.Pass) error {
	if !importsPersist(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func importsPersist(pkg *types.Package) bool {
	if strings.HasSuffix(pkg.Path(), "internal/persist") {
		return true
	}
	for _, imp := range pkg.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/persist") {
			return true
		}
	}
	return false
}

type state struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
	// validatedAt records the earliest source position at which each
	// tainted object was bounds-checked.
	validatedAt map[types.Object]token.Pos
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	st := &state{pass: pass, tainted: map[types.Object]bool{}, validatedAt: map[types.Object]token.Pos{}}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if st.taintedExpr(s.Rhs[i]) {
							changed = st.mark(lhs) || changed
						}
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i, name := range s.Names {
						if st.taintedExpr(s.Values[i]) {
							changed = st.mark(name) || changed
						}
					}
				}
			}
			return true
		})
	}
	st.recordValidations(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
			return true
		} else if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			return true
		}
		for _, sizeArg := range call.Args[1:] {
			if obj := st.unvalidated(sizeArg, call.Pos()); obj != nil {
				pass.Reportf(call.Pos(), "make sized from on-disk length %s without a preceding bound check; cap it against the remaining input first", obj.Name())
			}
		}
		return true
	})
}

// mark taints the object behind an assignable expression.
func (st *state) mark(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := st.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = st.pass.TypesInfo.Uses[id]
	}
	if obj == nil || st.tainted[obj] {
		return false
	}
	st.tainted[obj] = true
	return true
}

// taintedExpr reports whether e carries an untrusted on-disk length.
func (st *state) taintedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.Uses[e]
		return obj != nil && st.tainted[obj]
	case *ast.ParenExpr:
		return st.taintedExpr(e.X)
	case *ast.BinaryExpr:
		return st.taintedExpr(e.X) || st.taintedExpr(e.Y)
	case *ast.CallExpr:
		if st.isPersistIntRead(e) {
			return true
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, isB := st.pass.TypesInfo.Uses[id].(*types.Builtin); isB {
				switch b.Name() {
				case "min":
					// min clamps: tainted only if every operand is.
					for _, a := range e.Args {
						if !st.taintedExpr(a) {
							return false
						}
					}
					return len(e.Args) > 0
				case "max", "len":
					for _, a := range e.Args {
						if st.taintedExpr(a) {
							return true
						}
					}
					return false
				}
			}
		}
		// Integer conversions keep the taint.
		if tv, ok := st.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return st.taintedExpr(e.Args[0])
		}
	}
	return false
}

// isPersistIntRead reports whether call reads an integer off the persist
// decoder (MReader — matched by receiver package).
func (st *state) isPersistIntRead(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !intReaders[sel.Sel.Name] {
		return false
	}
	s, ok := st.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
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
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/persist")
}

// recordValidations scans for bound checks and records, per tainted
// object, where it was first validated. Comparisons anywhere count —
// loaders often compute `ok := got == n && ...` and feed it to
// MReader.Check rather than branching inline.
func (st *state) recordValidations(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			st.recordComparisons(n)
		case *ast.CallExpr:
			var name string
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if name == "" {
				return true
			}
			lower := strings.ToLower(name)
			for _, sub := range validatorSubstrings {
				if strings.Contains(lower, sub) {
					for _, a := range n.Args {
						st.validateOperands(a, n.Pos())
					}
					break
				}
			}
		}
		return true
	})
}

// recordComparisons marks every tainted object compared inside a
// condition expression as validated at that position.
func (st *state) recordComparisons(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			st.validateOperands(b.X, b.Pos())
			st.validateOperands(b.Y, b.Pos())
		}
		return true
	})
}

// validateOperands marks every tainted identifier inside e as validated
// at pos (keeping the earliest position seen).
func (st *state) validateOperands(e ast.Expr, pos token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := st.pass.TypesInfo.Uses[id]
		if obj == nil || !st.tainted[obj] {
			return true
		}
		if prev, ok := st.validatedAt[obj]; !ok || pos < prev {
			st.validatedAt[obj] = pos
		}
		return true
	})
}

// unvalidated returns a tainted object used in the size expression that
// has no validation before makePos, or nil if the size is safe.
func (st *state) unvalidated(size ast.Expr, makePos token.Pos) types.Object {
	if !st.taintedExpr(size) {
		return nil
	}
	var found types.Object
	sawTaintedIdent := false
	ast.Inspect(size, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := st.pass.TypesInfo.Uses[id]
		if obj == nil || !st.tainted[obj] {
			return true
		}
		sawTaintedIdent = true
		if at, ok := st.validatedAt[obj]; !ok || at >= makePos {
			found = obj
		}
		return true
	})
	if found == nil && !sawTaintedIdent {
		// The size is a tainted expression with no identifiable variable
		// (e.g. make([]T, r.Int())): report against the expression.
		return anonLength{}
	}
	return found
}

// anonLength stands in for a tainted size expression with no variable.
type anonLength struct{ types.Object }

func (anonLength) Name() string { return "(on-disk length)" }
