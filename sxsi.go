// Package sxsi is a Go implementation of SXSI, the Succinct XML Self-Index
// of Arroyuelo, Claude, Maneth, Mäkinen, Navarro, Nguyên, Sirén and
// Välimäki ("Fast in-memory XPath search using compressed indexes", ICDE
// 2010): a compressed, in-memory self-index for XML that supports fast
// evaluation of the Core+ XPath fragment (forward axes plus the text
// predicates =, contains, starts-with, ends-with).
//
// The index replaces the document: the tree structure lives in a
// balanced-parentheses representation with per-tag rank/select support, and
// the text collection lives in an FM-index from which any text can be
// extracted. Queries compile to alternating marking tree automata that jump
// directly to relevant nodes, or run bottom-up from text-index matches for
// selective textual predicates.
//
// Quick start:
//
//	ctx := context.Background()
//	idx, err := sxsi.Build(ctx, xmlBytes, sxsi.Config{})
//	n, err := idx.Count(ctx, "//listitem//keyword")
//	_, err = idx.Serialize(ctx, "//keyword[contains(., 'gold')]", os.Stdout)
//
// The index replaces the document on disk too: SaveFile writes it in a
// versioned binary format, and OpenFile restores it while skipping parsing
// and suffix sorting — more than an order of magnitude faster than Build:
//
//	_, err = idx.SaveFile("doc.sxsi")
//	idx, err = sxsi.OpenFile("doc.sxsi", sxsi.Config{})
package sxsi

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/xpath"
)

// Config controls indexing and evaluation; the zero value gives the paper's
// defaults (FM-index with sampling step 64, plain-text store kept, all
// evaluator optimizations on).
type Config = core.Config

// Index is an indexed XML document.
type Index struct{ *core.Engine }

// Query is a compiled Core+ XPath query bound to an index.
type Query = xpath.Query

// QueryOptions are the per-query planner and evaluator toggles.
type QueryOptions = xpath.Options

// Strategy selects between the top-down marking automaton and the
// bottom-up text-index climb; set it through QueryOptions.ForceStrategy to
// override the cost model's per-query choice.
type Strategy = xpath.Strategy

// The evaluation strategies a query can be pinned to.
const (
	StrategyAuto     = xpath.StrategyAuto
	StrategyTopDown  = xpath.StrategyTopDown
	StrategyBottomUp = xpath.StrategyBottomUp
)

// ParseStrategy resolves the CLI/wire names of the strategies
// ("auto", "top-down", "bottom-up" and their abbreviations).
func ParseStrategy(s string) (Strategy, error) { return xpath.ParseStrategy(s) }

// CostEstimate is the cost model's record of the statistics consulted and
// the strategy chosen for a compiled query (Query.Cost).
type CostEstimate = xpath.CostEstimate

// ResultIter streams result nodes lazily in document order (Index.Iter,
// Query.Iter). Close it — or drain it — before closing the index it reads
// from.
type ResultIter = xpath.ResultIter

// Build parses and indexes an XML document held in memory, polling ctx in
// every stage of the build.
func Build(ctx context.Context, xml []byte, cfg Config) (*Index, error) {
	return index(core.BuildContext(ctx, xml, cfg))
}

// Load reads an index previously written with Save into one heap buffer
// and decodes it in place. Loading skips suffix sorting and is much faster
// than Build.
func Load(r io.Reader, cfg Config) (*Index, error) {
	return index(core.Load(r, cfg))
}

// OpenFile opens an index file previously written with SaveFile (or the
// sxsi CLI's build subcommand) memory-mapped: the succinct payloads alias
// the mapped file, so opening costs only the derived directories and the
// index pages stay shared with the OS page cache across processes and
// restarts. With cfg.NoMmap the file is read into one heap buffer instead
// and decoded the same way, as Load does. A file of another format version
// fails with an error asking to rebuild it with `sxsi build`. Call Close
// on the returned index once it is no longer used to release the mapping.
func OpenFile(path string, cfg Config) (*Index, error) {
	return index(core.OpenFile(path, cfg))
}

// index wraps the engine a constructor returned.
func index(e *core.Engine, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return &Index{e}, nil
}
