package sxsi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// twinAllowlist names the operations that keep both a context-free and a
// context-taking entry point, keyed "dir.Receiver.Name", or "dir.Name" for
// a package-level func. The benchmark module pins the context-free half,
// and a served path needs the other.
var twinAllowlist = map[string]bool{
	// benchmark/setup.go calls Engine.SaveFile; `sxsi build` calls
	// SaveFileCtx so that an interrupt removes the temporary file.
	"internal/core.Engine.SaveFile": true,
	// benchmark/layers.go and benchmark/workloads.go call xmlparse.Parse;
	// xmltree.ParseRaw calls ParseCtx.
	"internal/xmlparse.Parse": true,
}

// TestOneMethodPerOperation keeps one entry point per operation: for every
// receiver type, and for the package-level funcs, of the non-test code
// outside benchmark/ and testdata/, no name X may exist next to XCtx or
// XContext, exported or not, unless twinAllowlist names it.
func TestOneMethodPerOperation(t *testing.T) {
	funcs := map[string]bool{} // keyed as twinAllowlist
	walkSource(t, func(dir string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				key := dir + "." + fn.Name.Name
				if recv := receiverName(fn); recv != "" {
					key = dir + "." + recv + "." + fn.Name.Name
				}
				funcs[key] = true
			}
		}
	})
	var twins []string
	allowed := 0
	for key := range funcs {
		for _, suffix := range []string{"Ctx", "Context"} {
			if !funcs[key+suffix] {
				continue
			}
			if twinAllowlist[key] {
				allowed++
				continue
			}
			twins = append(twins, key+" / "+key[strings.LastIndexByte(key, '.')+1:]+suffix)
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("two entry points for one operation: %s", tw)
	}
	if allowed != len(twinAllowlist) {
		t.Errorf("%d of the %d allowlisted pairs still exist; drop the stale entries", allowed, len(twinAllowlist))
	}
}

// unsafeAllowed names the packages that may import unsafe: the two that
// turn a read-only file image into typed payloads.
var unsafeAllowed = map[string]bool{"internal/persist": true, "internal/mmap": true}

// TestUnsafeConfined keeps unsafe in the loader-support packages: no other
// non-test file outside benchmark/ and testdata/ may import it. Payloads
// decoded from an index image alias read-only memory, and only those two
// packages may reinterpret it; everywhere else the type system keeps
// decoded bytes from turning into strings or writable words by accident.
func TestUnsafeConfined(t *testing.T) {
	walkSource(t, func(dir string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` && !unsafeAllowed[dir] {
				t.Errorf("%s: imports unsafe; only internal/persist and internal/mmap may", dir)
			}
		}
	})
}

// walkSource parses every non-test Go file outside benchmark/ and testdata/
// and calls fn with the file's slash-separated directory.
func walkSource(t *testing.T, fn func(dir string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "benchmark", "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverName returns the base type name of fn's receiver, or "" for a
// package-level func.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
