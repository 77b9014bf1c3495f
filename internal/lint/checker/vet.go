package checker

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint/analysis"
)

// vetConfig is the subset of cmd/go's vet.cfg the tool consumes. cmd/go
// writes one per package (dependencies included, for fact passing) and
// invokes the vettool as `tool path/vet.cfg`.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// Vet runs the tool under the `go vet -vettool` protocol: respond to
// -V=full (version for the build cache key) and -flags (supported flag
// set, none), then analyze the package described by the cfg argument.
// Returns the process exit code: 0 clean, 1 operational failure, 2
// diagnostics reported (matching x/tools' unitchecker convention, which
// cmd/go interprets as "vet found problems").
//
// sxsivet analyzers are fact-free, so invocations for dependency
// packages (VetxOnly) write an empty facts file and return immediately —
// a `go vet -vettool=sxsivet ./...` spends its time only on the
// packages actually named.
func Vet(args []string, analyzers []*analysis.Analyzer) int {
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// cmd/go caches vet results keyed on this line.
		fmt.Printf("sxsivet version 1 buildID=sxsivet-1\n")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "sxsivet: expected a vet config file, got %q (run it via go vet -vettool)\n", args)
		return 1
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "sxsivet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sxsivet: parsing %s: %v\n", args[0], err)
		return 1
	}
	if cfg.VetxOutput != "" {
		// No facts, but cmd/go expects the file to exist.
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "sxsivet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	diags, err := Analyze(Target{
		ImportPath: cfg.ImportPath,
		GoFiles:    cfg.GoFiles,
		Exports:    cfg.PackageFile,
		ImportMap:  cfg.ImportMap,
		GoVersion:  cfg.GoVersion,
	}, analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "sxsivet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	return printFindings(diags)
}

// printFindings writes diagnostics in the file:line:col form cmd/go and
// editors understand, tagged with the analyzer so the matching
// //sxsivet:ignore is one copy-paste away.
func printFindings(findings []Finding) int {
	if len(findings) == 0 {
		return 0
	}
	for _, d := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (sxsivet/%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	return 2
}
