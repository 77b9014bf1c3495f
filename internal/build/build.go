// Package build is the staged construction pipeline for the SXSI index:
//
//	parse (xmltree.ParseRaw)
//	  ├── structure assembly (BP, tag sequence, leaf bitmap, planner tables)
//	  └── text self-index (fmindex.NewCtx: chunked SA-IS + merge)
//	attach (Doc.SetFM)
//
// Stage 1 flattens the document into plain arrays; the two sides of stage 2
// depend only on that product, so with an unbounded memory budget they run
// concurrently. A bounded budget serializes them — structure first, then
// the text index — so their peaks do not stack, and hands the budget to the
// FM builder, which sizes its sort chunks against it and spills chunk
// suffix arrays to disk when keeping them in RAM would not fit.
//
// Every stage polls the context at bounded intervals, and a failed or
// cancelled build returns an error with no partially built state reachable:
// the stage products are local until the final attach.
//
// xmltree.Parse runs the same stages one after another and produces an
// identical *xmltree.Doc; the equivalence suite pins the serialized index
// byte for byte across worker counts and budgets.
package build

import (
	"context"

	"repro/internal/fmindex"
	"repro/internal/xmltree"
)

// Options configure a pipeline run.
type Options struct {
	// Tree carries the document-model options (sampling rate, SkipFM,
	// SkipPlain), exactly as xmltree.Parse takes them.
	Tree xmltree.Options
	// Procs is the worker count for the parallel text-index construction
	// (0 = GOMAXPROCS). Any value produces the same index.
	Procs int
	// MemoryBudget bounds the transient construction memory of the text
	// side in bytes and serializes the two assembly sides (0 = unbounded,
	// concurrent). See fmindex.Options.MemoryBudget for the floor.
	MemoryBudget int64
	// TempDir receives suffix-array spill files of bounded builds
	// ("" = os.TempDir()).
	TempDir string
	// FMStats, when non-nil, receives the realized text-side build plan.
	FMStats *fmindex.BuildStats
}

// Document builds the indexed document model from an XML byte slice via the
// staged pipeline. It is the parallel, memory-bounded, cancellable
// equivalent of xmltree.Parse.
func Document(ctx context.Context, xml []byte, o Options) (*xmltree.Doc, error) {
	raw, err := xmltree.ParseRaw(ctx, xml)
	if err != nil {
		return nil, err
	}
	if o.Tree.SkipFM {
		return xmltree.AssembleStructure(ctx, raw, o.Tree)
	}
	fmOpts := fmindex.Options{
		SampleRate:   o.Tree.SampleRate,
		Procs:        o.Procs,
		MemoryBudget: o.MemoryBudget,
		TempDir:      o.TempDir,
		Stats:        o.FMStats,
	}
	if o.MemoryBudget > 0 {
		// Bounded: do not stack the structural peak on the text-side peak.
		doc, err := xmltree.AssembleStructure(ctx, raw, o.Tree)
		if err != nil {
			return nil, err
		}
		fm, err := fmindex.NewCtx(ctx, raw.Texts.All(), fmOpts)
		if err != nil {
			return nil, err
		}
		doc.SetFM(fm)
		return doc, nil
	}
	// Unbounded: the text side (dominant) overlaps the structure build.
	var (
		fm     *fmindex.Index
		fmErr  error
		fmDone = make(chan struct{})
	)
	go func() {
		defer close(fmDone)
		fm, fmErr = fmindex.NewCtx(ctx, raw.Texts.All(), fmOpts)
	}()
	doc, err := xmltree.AssembleStructure(ctx, raw, o.Tree)
	<-fmDone
	if err != nil {
		return nil, err
	}
	if fmErr != nil {
		return nil, fmErr
	}
	doc.SetFM(fm)
	return doc, nil
}
