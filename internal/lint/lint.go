// Package lint assembles the sxsivet analyzer suite: three repo-specific
// static checks for safety contracts that tests cannot observe or that
// have already produced real bugs. Mapped memory stays read-only
// (mmapalias: a write through an aliased image corrupts silently),
// document-scale loops poll their context (ctxpoll), and guarded-by
// annotations hold (guardedby). The loader contracts (bounded
// allocations, typed corruption errors) are built into persist.MReader and
// checked by persisttest.Sweep instead. See docs/ARCHITECTURE.md,
// "Invariants & static analysis", for the contract-by-contract story and
// the suppression syntax (//sxsivet:ignore <analyzer> <reason>).
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/ctxpoll"
	"repro/internal/lint/guardedby"
	"repro/internal/lint/mmapalias"
)

// Analyzers returns the full sxsivet suite in diagnostic order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mmapalias.Analyzer,
		ctxpoll.Analyzer,
		guardedby.Analyzer,
	}
}
