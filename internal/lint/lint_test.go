package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/ctxpoll"
	"repro/internal/lint/guardedby"
	"repro/internal/lint/mmapalias"
)

// TestAnalyzers runs each analyzer over a violating and a clean fixture.
// The fixtures pose as real repo import paths because the analyzers
// scope themselves by package path; the import path also selects which
// side of a path-dependent rule is exercised (e.g. mmapalias allows
// field stores in loader packages but not elsewhere).
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzer   *analysis.Analyzer
	}{
		{"testdata/mmapalias/bad", "repro/internal/xpath", mmapalias.Analyzer},
		{"testdata/mmapalias/good", "repro/internal/bitvec", mmapalias.Analyzer},
		{"testdata/ctxpoll/bad", "repro/internal/xpath", ctxpoll.Analyzer},
		{"testdata/ctxpoll/good", "repro/internal/xpath", ctxpoll.Analyzer},
		{"testdata/guardedby/bad", "repro/internal/collection", guardedby.Analyzer},
		{"testdata/guardedby/good", "repro/internal/collection", guardedby.Analyzer},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(filepath.Dir(tc.dir))+"/"+filepath.Base(tc.dir), func(t *testing.T) {
			analysistest.Run(t, tc.dir, tc.importPath, tc.analyzer)
		})
	}
}

// TestSuppression checks the //sxsivet:ignore directive: a justified
// directive silences the named analyzer (or all of them), a directive
// without a justification is itself reported and suppresses nothing.
func TestSuppression(t *testing.T) {
	t.Run("honored", func(t *testing.T) {
		analysistest.Run(t, "testdata/suppress/good", "repro/internal/xpath", ctxpoll.Analyzer)
	})
	t.Run("malformed", func(t *testing.T) {
		analysistest.Run(t, "testdata/suppress/bad", "repro/internal/xpath", ctxpoll.Analyzer)
	})
}

// TestSuiteComplete pins the analyzer roster: CI invokes the suite as a
// unit, so dropping an analyzer from Analyzers() must not pass silently.
func TestSuiteComplete(t *testing.T) {
	want := []string{"mmapalias", "ctxpoll", "guardedby"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestVetToolClean is the smoke test for the whole pipeline: build the
// sxsivet binary and run it as a vettool over the entire repo, which
// must exit clean — every surfaced violation was either fixed or
// carries a justified suppression.
func TestVetToolClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole tree")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "sxsivet")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/sxsivet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sxsivet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=sxsivet ./... reported findings: %v\n%s", err, out)
	}
}

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
