// Package core assembles the paper's primary contribution — the SXSI
// engine: the succinct document model (package xmltree: balanced
// parentheses, tag sequence, leaf bitmap), the FM-index text collection
// (package fmindex) and the tree-automata query evaluator with its planner
// (packages automata, xpath), behind one engine type. The public root
// package sxsi re-exports this API.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/build"
	"repro/internal/fmindex"
	"repro/internal/mmap"
	"repro/internal/persist"
	"repro/internal/rlfm"
	"repro/internal/search"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Engine is an indexed XML document ready for Core+ XPath queries.
//
// Concurrency contract: once built or loaded, an Engine is immutable and
// safe for concurrent use by any number of goroutines — Compile, Count,
// Nodes, Serialize and Stats may all run in parallel on one shared Engine.
// Every evaluation allocates its own scratch state (evaluator memo tables,
// result buffers), and compiled Queries are themselves safe for concurrent
// evaluation, so they may be cached and shared across goroutines (package
// collection does exactly that). Clones made with WithEval or
// WithQueryOptions share only the immutable index and are safe to use
// concurrently with their parent.
//
// An engine opened through OpenFile may be memory-mapped: its succinct
// payloads alias the mapped index file and only the derived directories
// live on the heap. The mapping stays valid for the engine's whole
// lifetime (clones included); Close releases it and must only be called
// once no goroutine can touch the engine or a clone again.
type Engine struct {
	Doc  *xmltree.Doc
	opts Config

	// backing keeps the mapped index file alive for mapped engines; nil
	// for built or copy-loaded engines.
	backing *mmap.File

	// postings caches the word-level postings of Postings(), built on
	// first use. Clones (WithEval/WithQueryOptions) start with a fresh
	// cache; they share the immutable Doc, so a rebuild is identical.
	// postOnce is the single flight of the build; the pointer is atomic so
	// PostingsIfBuilt can look without joining it.
	postOnce sync.Once
	postings atomic.Pointer[search.DocPostings]
}

// Config controls indexing and evaluation.
type Config struct {
	// SampleRate is the FM-index locate sampling step l (default 64;
	// Section 3.1, Tables II/III).
	SampleRate int
	// SkipFM disables the text self-index (tree-only workloads).
	SkipFM bool
	// SkipPlain drops the redundant plain-text store of Section 3.4; text
	// extraction then walks the BWT.
	SkipPlain bool
	// RunLength uses the run-length FM sequence (package rlfm) instead of
	// the wavelet tree — the RLCSA swap of Section 6.7 for repetitive
	// collections.
	RunLength bool
	// NoMmap disables the memory-mapped load path of OpenFile: the index is
	// copied into private memory as with LoadFile.
	NoMmap bool
	// BuildProcs is the worker count for parallel index construction
	// (0 = GOMAXPROCS). Any value produces the same index.
	BuildProcs int
	// MemoryBudget bounds the transient construction memory in bytes
	// (0 = unbounded): sort chunks are sized against it and per-chunk
	// suffix arrays spill to temporary files when RAM would not suffice.
	MemoryBudget int64
	// BuildTempDir receives the spill files of bounded builds
	// ("" = os.TempDir()).
	BuildTempDir string
	// Query carries the per-query evaluation options.
	Query xpath.Options
}

func (c Config) treeOptions() xmltree.Options {
	o := xmltree.Options{
		SkipFM:     c.SkipFM,
		SkipPlain:  c.SkipPlain,
		SampleRate: c.SampleRate,
	}
	if c.RunLength {
		o.Builder = func(bwt []byte) fmindex.RankSequence { return rlfm.New(bwt) }
	}
	return o
}

// Build parses and indexes an XML document held in memory.
func Build(xml []byte, cfg Config) (*Engine, error) {
	return BuildContext(context.Background(), xml, cfg)
}

// BuildContext is Build with cancellation and resource control: it runs the
// staged pipeline of package build — parse, then structure assembly and the
// chunk-parallel text-index construction (cfg.BuildProcs workers, transient
// memory bounded by cfg.MemoryBudget) — polling ctx at bounded intervals in
// every stage. The produced index is byte-identical to a serial build.
func BuildContext(ctx context.Context, xml []byte, cfg Config) (*Engine, error) {
	doc, err := build.Document(ctx, xml, build.Options{
		Tree:         cfg.treeOptions(),
		Procs:        cfg.BuildProcs,
		MemoryBudget: cfg.MemoryBudget,
		TempDir:      cfg.BuildTempDir,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{Doc: doc, opts: cfg}, nil
}

// BuildFile indexes an XML file.
func BuildFile(path string, cfg Config) (*Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Build(data, cfg)
}

// Save writes the index to w in the versioned container format of package
// persist; Load reads it back. Loading skips suffix sorting and is much
// faster than Build (Figure 8).
func (e *Engine) Save(w io.Writer) (int64, error) { return e.Doc.WriteTo(w) }

// SaveFile writes the index to path, returning the number of bytes
// written. The write is crash-safe: the index is written to a temporary
// file in the same directory, fsynced, and atomically renamed over path,
// so a crash mid-build can never leave a truncated .sxsi that a later
// (mapped) reader would trust. The containing directory is fsynced
// best-effort to persist the rename itself.
func (e *Engine) SaveFile(path string) (int64, error) {
	return e.SaveFileCtx(context.Background(), path)
}

// SaveFileCtx is SaveFile with cancellation: the writer checks ctx between
// section writes, so an interrupted save aborts promptly and takes the
// error path of the atomic write — the temporary file is removed and path
// is left untouched (no orphaned .sxsi.tmp).
func (e *Engine) SaveFileCtx(ctx context.Context, path string) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	// CreateTemp makes the file 0600; give the finished index the usual
	// artifact permissions — other processes mapping the same file (the
	// point of the mmap path) must be able to open it.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	var w io.Writer = f
	if ctx != nil && ctx.Done() != nil {
		w = &ctxWriter{ctx: ctx, w: f}
	}
	n, err := e.Save(w)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return n, err
	}
	// Not all platforms and filesystems support fsyncing a directory;
	// failure here does not undo a completed, durable write of the data.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// ctxWriter fails writes once its context is done. Writes arrive in
// section-sized batches from the persist layer, so the per-call check is
// both cheap and prompt.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (cw *ctxWriter) Write(p []byte) (int, error) {
	if err := cw.ctx.Err(); err != nil {
		return 0, err
	}
	return cw.w.Write(p)
}

// Load reads an index previously written by Save.
func Load(r io.Reader, cfg Config) (*Engine, error) {
	doc, err := xmltree.ReadIndex(r, cfg.treeOptions())
	if err != nil {
		return nil, err
	}
	return &Engine{Doc: doc, opts: cfg}, nil
}

// LoadFile reads an index file previously written by SaveFile.
func LoadFile(path string, cfg Config) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, cfg)
}

// ErrNotMappable reports an index whose on-disk version predates the
// aligned layout; it loads through Load/LoadFile but not LoadMapped.
var ErrNotMappable = xmltree.ErrNotMappable

// LoadMapped reads an index out of data — typically an mmap'd file —
// aliasing the succinct payloads in place instead of copying them. Only
// derived directories are built on the heap, so the load cost is
// independent of the text and tree payload sizes. data must stay alive
// and unchanged for the engine's whole lifetime (for a real mapping, keep
// the mapping open; OpenFile manages that automatically). Indexes older
// than the aligned format return ErrNotMappable.
func LoadMapped(data []byte, cfg Config) (*Engine, error) {
	doc, err := xmltree.ReadIndexMapped(persist.EnsureAligned(data), cfg.treeOptions())
	if err != nil {
		return nil, err
	}
	return &Engine{Doc: doc, opts: cfg}, nil
}

// OpenFile opens an index file for querying with the fastest available
// path: the file is memory-mapped (or, on platforms without mmap, read
// into one aligned buffer) and loaded zero-copy via LoadMapped, so opening
// a multi-gigabyte index costs only its derived directories and restarts
// hit the OS page cache instead of re-reading the index. Pre-aligned-
// layout files, big-endian hosts, and cfg.NoMmap all fall back to the
// copying load. The engine owns the mapping; release it with Close once
// the engine is no longer in use.
func OpenFile(path string, cfg Config) (*Engine, error) {
	if cfg.NoMmap {
		return LoadFile(path, cfg)
	}
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	eng, err := LoadMapped(m.Data(), cfg)
	if err == nil {
		eng.backing = m
		// Fallback release: once the document — the object whose slices
		// alias the mapping, shared by every clone and compiled query — is
		// unreachable, unmap. This is what keeps a long-running service
		// that replaces documents (collection.Add over an existing name)
		// from accumulating dead mappings; explicit Close stays available
		// for deterministic release and the two compose because Close is
		// idempotent. Caveat: a caller that keeps an aliased []byte (e.g. a
		// Doc.Text result) without keeping the engine or document alive has
		// already broken the documented lifetime contract.
		runtime.SetFinalizer(eng.Doc, func(*xmltree.Doc) { m.Close() })
		return eng, nil
	}
	if errors.Is(err, ErrNotMappable) {
		// Old unaligned container: decode it the copying way, straight out
		// of the mapped bytes, then drop the mapping.
		eng, err = Load(bytes.NewReader(m.Data()), cfg)
	}
	m.Close()
	return eng, err
}

// Mapped reports whether the engine's payloads alias a mapped (or aligned
// fallback) buffer rather than private heap memory.
func (e *Engine) Mapped() bool { return e.Doc.MappedBytes() > 0 }

// Close releases the mapping behind a mapped engine; it is a no-op for
// heap-loaded engines and is idempotent. The caller must guarantee that
// neither the engine nor any clone of it is used afterwards — their
// payloads point into the released region.
func (e *Engine) Close() error {
	if e.backing == nil {
		return nil
	}
	err := e.backing.Close()
	e.backing = nil
	return err
}

// IsIndexData reports whether data begins with the saved-index magic, i.e.
// whether it is a serialized index rather than raw XML.
func IsIndexData(data []byte) bool {
	return len(data) >= len(xmltree.IndexMagic) &&
		string(data[:len(xmltree.IndexMagic)]) == xmltree.IndexMagic
}

// Postings returns the engine's word-level postings — per-token term
// frequencies and the total token count over the document's texts, the
// per-document slice of the collection search tier (package search). It
// is built lazily on first use, cached for the engine's lifetime, and
// safe for concurrent use; the returned value is immutable and carries
// the engine's document for phrase counting and snippet extraction.
func (e *Engine) Postings() *search.DocPostings {
	e.postOnce.Do(func() { e.postings.Store(search.BuildDoc(e.Doc)) })
	return e.postings.Load()
}

// PostingsIfBuilt returns the postings if a Postings call has already
// built them and nil otherwise; it never builds and never waits for a
// build in flight.
func (e *Engine) PostingsIfBuilt() *search.DocPostings { return e.postings.Load() }

// Compile compiles a Core+ XPath query against the document.
func (e *Engine) Compile(query string) (*xpath.Query, error) {
	return xpath.Compile(query, e.Doc, e.opts.Query)
}

// Count runs the query in counting mode.
func (e *Engine) Count(query string) (int64, error) {
	return e.CountContext(context.Background(), query)
}

// CountContext is Count with cancellation: both evaluation strategies poll
// the context and return its error once it is done.
func (e *Engine) CountContext(ctx context.Context, query string) (int64, error) {
	q, err := e.Compile(query)
	if err != nil {
		return 0, err
	}
	return q.CountCtx(ctx)
}

// Nodes materializes the result nodes (positions in the parentheses
// sequence; use Doc methods or Serialize for content).
func (e *Engine) Nodes(query string) ([]int, error) {
	return e.NodesContext(context.Background(), query)
}

// NodesContext is Nodes with cancellation.
func (e *Engine) NodesContext(ctx context.Context, query string) ([]int, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return q.NodesCtx(ctx)
}

// Exists reports whether the query selects at least one node, evaluating
// lazily: the first verified result ends the run, so a selective query on a
// large document costs far less than Count.
func (e *Engine) Exists(ctx context.Context, query string) (bool, error) {
	q, err := e.Compile(query)
	if err != nil {
		return false, err
	}
	return q.Exists(ctx)
}

// Iter compiles the query and returns a lazy document-order iterator over
// its results. The iterator must be closed (or drained) before the engine
// is: for mapped engines it reads from the mapping.
func (e *Engine) Iter(ctx context.Context, query string) (xpath.ResultIter, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return q.Iter(ctx), nil
}

// Serialize evaluates the query and writes the XML serialization of each
// result node to w, returning the number of results.
func (e *Engine) Serialize(query string, w io.Writer) (int, error) {
	return e.SerializeContext(context.Background(), query, w)
}

// SerializeContext is Serialize with cancellation; results stream through
// the lazy iterator, so a cancelled call has written a prefix of them.
func (e *Engine) SerializeContext(ctx context.Context, query string, w io.Writer) (int, error) {
	q, err := e.Compile(query)
	if err != nil {
		return 0, err
	}
	return q.SerializeCtx(ctx, w)
}

// Stats describes the in-memory footprint of the index components
// (Figure 8's memory column). For mapped engines, Mapped is true,
// MappedBytes is the size of the aliased index file, and HeapBytes
// estimates the private memory left over (the derived directories): the
// component byte counts include the aliased payloads, so heap usage is
// their total minus the mapping.
type Stats struct {
	Nodes       int  `json:"nodes"`
	Texts       int  `json:"texts"`
	Tags        int  `json:"tags"`
	TreeBytes   int  `json:"tree_bytes"`
	TextBytes   int  `json:"text_bytes"` // FM-index
	PlainBytes  int  `json:"plain_bytes"`
	Mapped      bool `json:"mapped"`
	MappedBytes int  `json:"mapped_bytes"`
	HeapBytes   int  `json:"heap_bytes"`
}

// Stats reports index statistics.
func (e *Engine) Stats() Stats {
	tree, text, plain := e.Doc.SizeInBytes()
	st := Stats{
		Nodes:      e.Doc.NumNodes(),
		Texts:      e.Doc.NumTexts(),
		Tags:       e.Doc.NumTags(),
		TreeBytes:  tree,
		TextBytes:  text,
		PlainBytes: plain,
	}
	st.MappedBytes = e.Doc.MappedBytes()
	st.Mapped = st.MappedBytes > 0
	st.HeapBytes = max(0, tree+text+plain-st.MappedBytes)
	return st
}

// cloneQueryOptions deep-copies the reference-typed parts of query options
// so an Engine clone never aliases mutable state with its parent: mutating
// the CustomMatchSets registry of one must not be visible in the other.
func cloneQueryOptions(o xpath.Options) xpath.Options {
	if o.CustomMatchSets != nil {
		m := make(map[string]func(string) []int32, len(o.CustomMatchSets))
		for name, fn := range o.CustomMatchSets {
			m[name] = fn
		}
		o.CustomMatchSets = m
	}
	return o
}

// WithEval returns a copy of the engine with the given evaluator option
// overrides applied (used by the ablation benchmarks). The clone shares the
// immutable index only and is safe to use concurrently with the parent.
func (e *Engine) WithEval(opts automata.Options) *Engine {
	cfg := e.opts
	cfg.Query = cloneQueryOptions(cfg.Query)
	cfg.Query.Eval = opts
	return &Engine{Doc: e.Doc, opts: cfg}
}

// WithQueryOptions returns a copy of the engine using the given query
// options (planner toggles, custom predicates). The clone shares the
// immutable index only and is safe to use concurrently with the parent.
func (e *Engine) WithQueryOptions(opts xpath.Options) *Engine {
	cfg := e.opts
	cfg.Query = cloneQueryOptions(opts)
	return &Engine{Doc: e.Doc, opts: cfg}
}

func (e *Engine) String() string {
	return fmt.Sprintf("sxsi[nodes=%d texts=%d tags=%d]", e.Doc.NumNodes(), e.Doc.NumTexts(), e.Doc.NumTags())
}
