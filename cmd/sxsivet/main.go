// Command sxsivet is the repo-specific static analysis suite: three
// analyzers for contracts that tests cannot observe or that have already
// produced real bugs (mapped memory is read-only, document-scale loops
// poll their context, guarded-by annotations hold). It runs under the
// go vet harness, which supplies export data per package and caches the
// results:
//
//	go build -o /tmp/sxsivet repro/cmd/sxsivet
//	go vet -vettool=/tmp/sxsivet ./...
//
// Suppress a finding with an in-source comment:
//
//	//sxsivet:ignore <analyzer> <reason>
package main

import (
	"os"

	"repro/internal/lint"
	"repro/internal/lint/checker"
)

func main() { os.Exit(checker.Vet(os.Args[1:], lint.Analyzers())) }
