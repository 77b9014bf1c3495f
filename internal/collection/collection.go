// Package collection is the multi-document serving layer on top of the SXSI
// engine: a registry of named indexed documents, parallel bulk loading of
// saved indexes (with build-on-miss for raw XML), a bounded worker-pool
// batch query API, and an LRU cache of compiled queries. It is the
// in-process core of the sxsid server (package service); everything here is
// safe for concurrent use.
package collection

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/xpath"
)

// ErrUnknownDoc reports a request against a document name that is not in
// the collection.
var ErrUnknownDoc = errors.New("collection: unknown document")

// QueryError wraps a compilation failure (parse error or unsupported
// fragment): the request itself was bad, as opposed to a server-side
// evaluation failure. The HTTP layer maps it to 400.
type QueryError struct{ Err error }

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

// DefaultCacheSize is the compiled-query LRU capacity when Config.CacheSize
// is zero.
const DefaultCacheSize = 256

// Config tunes a Collection; the zero value gives sensible defaults.
type Config struct {
	// Workers bounds the batch worker pool and the LoadDir loader pool
	// (default GOMAXPROCS).
	Workers int
	// CacheSize is the compiled-query LRU capacity (default
	// DefaultCacheSize; negative disables caching).
	CacheSize int
	// RequestTimeout bounds the evaluation of every single request (one
	// Do/DoContext call, one streamed Serialize): the evaluators poll their
	// context and a request past its deadline fails with
	// context.DeadlineExceeded instead of occupying a worker forever. Zero
	// means no per-request deadline.
	RequestTimeout time.Duration
	// DisableSearch turns off the collection search tier: Search fails
	// with ErrSearchDisabled, so no document's postings are ever built.
	// Opening costs the same either way — postings are built by the first
	// Search that needs them, never by Open, Add or Reload.
	DisableSearch bool
	// Index configures document building and loading.
	Index core.Config
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Collection is a registry of named indexed documents with a shared
// compiled-query cache. All methods are safe for concurrent use.
type Collection struct {
	cfg Config

	mu      sync.RWMutex
	docs    map[string]*core.Engine // guarded by mu
	sources map[string]docSource    // guarded by mu; docs that came from files, for Reload

	cacheMu sync.Mutex
	cache   *lru // guarded by cacheMu; nil when caching is disabled

	met metrics
}

// docSource remembers where a document was opened from and what the file
// looked like then, so Reload can detect changes with one stat.
type docSource struct {
	path  string
	mtime time.Time
	size  int64
}

// New creates an empty collection.
func New(cfg Config) *Collection {
	c := &Collection{cfg: cfg, docs: map[string]*core.Engine{}, sources: map[string]docSource{}}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		c.cache = newLRU(size)
	}
	return c
}

// Add registers (or replaces) a document under name. Replacing a document
// drops its cached compiled queries; in-flight evaluations hold their own
// engine pointer and finish against the old index, so a swap is safe under
// load. Documents registered through Add are not file-backed and are left
// alone by Reload.
func (c *Collection) Add(name string, eng *core.Engine) {
	c.add(name, eng, nil)
}

func (c *Collection) add(name string, eng *core.Engine, src *docSource) {
	c.mu.Lock()
	c.docs[name] = eng
	if src != nil {
		c.sources[name] = *src
	} else {
		delete(c.sources, name)
	}
	c.mu.Unlock()
	c.dropCached(name)
}

// Remove unregisters a document and drops its cached compiled queries; it
// reports whether the document existed.
func (c *Collection) Remove(name string) bool {
	c.mu.Lock()
	_, ok := c.docs[name]
	delete(c.docs, name)
	delete(c.sources, name)
	c.mu.Unlock()
	c.dropCached(name)
	return ok
}

func (c *Collection) dropCached(name string) {
	if c.cache == nil {
		return
	}
	c.cacheMu.Lock()
	c.cache.removeDoc(name)
	c.cacheMu.Unlock()
}

// Get returns the engine registered under name.
func (c *Collection) Get(name string) (*core.Engine, bool) {
	c.mu.RLock()
	eng, ok := c.docs[name]
	c.mu.RUnlock()
	return eng, ok
}

// Names returns the registered document names, sorted.
func (c *Collection) Names() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.docs))
	for n := range c.docs {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Open loads the file at path and registers it under name: a saved index
// (recognized by its magic number) is opened through core.OpenFile —
// memory-mapped by default, so startup cost is independent of the index
// size and the pages stay shared with the OS cache (set Index.NoMmap to
// copy instead) — and anything else is treated as raw XML and indexed on
// the fly (build-on-miss). Only the raw-XML path buffers the whole file;
// indexes can be multi-GB and are never held as raw bytes nor copied onto
// the heap.
//
// A mapped engine keeps its index file mapped for as long as the engine is
// reachable; replacing or removing a document does not unmap it eagerly
// (queries may still be running against it). Once the engine — and the
// compiled queries referencing it, which Add/Remove drop from the cache —
// becomes unreachable, the mapping is released by the finalizer OpenFile
// registered, so a daemon that hot-reloads documents does not accumulate
// dead mappings.
func (c *Collection) Open(name, path string) error {
	// Stat before reading: if the file is replaced mid-open, the recorded
	// mtime/size predate the change and the next Reload re-opens it.
	fi, statErr := os.Stat(path)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	br := bufio.NewReader(f)
	head, _ := br.Peek(16) // shorter files simply fail the magic check
	var eng *core.Engine
	if core.IsIndexData(head) {
		f.Close()
		eng, err = core.OpenFile(path, c.cfg.Index)
	} else {
		var data []byte
		if data, err = io.ReadAll(br); err == nil {
			eng, err = core.Build(data, c.cfg.Index)
		}
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("collection: open %s: %w", path, err)
	}
	var src *docSource
	if statErr == nil {
		src = &docSource{path: path, mtime: fi.ModTime(), size: fi.Size()}
	}
	c.add(name, eng, src)
	return nil
}

// ReloadReport summarizes one Reload pass over the file-backed documents.
type ReloadReport struct {
	// Reloaded lists documents whose source file changed (mtime or size)
	// and was re-opened, sorted.
	Reloaded []string `json:"reloaded"`
	// Removed lists documents whose source file disappeared and were
	// unregistered, sorted.
	Removed []string `json:"removed"`
	// Unchanged counts documents whose source file was stat-identical.
	Unchanged int `json:"unchanged"`
	// Failed maps document names to the error that kept them from
	// reloading; the previously loaded engine keeps serving.
	Failed map[string]string `json:"failed,omitempty"`
}

// Reload re-stats every file-backed document (registered through Open or
// LoadDir) and re-opens, in parallel on Config.Workers loaders, the ones
// whose file changed since it was last opened. The swap is the Add pointer
// flip: in-flight queries finish on the old engine, new requests see the
// new one, and the old engine's cached compiled queries are dropped. A
// mapped old index stays mapped until its last query completes and the
// engine becomes unreachable (the mmap finalizer releases it — see Open).
// Documents whose file vanished are removed; ones that fail to re-open
// keep serving the old index and are reported in Failed. Documents added
// directly with Add have no file and are never touched.
func (c *Collection) Reload(ctx context.Context) ReloadReport {
	c.mu.RLock()
	srcs := make(map[string]docSource, len(c.sources))
	for name, src := range c.sources {
		srcs[name] = src
	}
	c.mu.RUnlock()

	rep := ReloadReport{Reloaded: []string{}, Removed: []string{}}
	var mu sync.Mutex
	fail := func(name string, err error) {
		mu.Lock()
		if rep.Failed == nil {
			rep.Failed = map[string]string{}
		}
		rep.Failed[name] = err.Error()
		mu.Unlock()
	}

	type job struct {
		name string
		src  docSource
	}
	var changed []job
	for name, src := range srcs {
		fi, err := os.Stat(src.path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			c.Remove(name)
			rep.Removed = append(rep.Removed, name)
		case err != nil:
			fail(name, err)
		case fi.ModTime().Equal(src.mtime) && fi.Size() == src.size:
			rep.Unchanged++
		default:
			changed = append(changed, job{name, src})
		}
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	workers := c.cfg.workers()
	if workers > len(changed) {
		workers = len(changed)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := c.Open(j.name, j.src.path); err != nil {
					fail(j.name, err)
					continue
				}
				mu.Lock()
				rep.Reloaded = append(rep.Reloaded, j.name)
				mu.Unlock()
			}
		}()
	}
feed:
	for i, j := range changed {
		select {
		case jobs <- j:
		case <-ctx.Done():
			for _, rest := range changed[i:] {
				fail(rest.name, ctx.Err())
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	sort.Strings(rep.Reloaded)
	sort.Strings(rep.Removed)
	c.met.reloads.Add(1)
	return rep
}

// LoadDir bulk-loads every .sxsi and .xml file directly under dir using
// Workers parallel loaders; the document name is the file name without its
// extension, and a saved .sxsi index shadows a same-named .xml source. It
// returns the sorted names registered; on error (including context
// cancellation) it still registers the documents already loaded and joins
// every per-file error.
func (c *Collection) LoadDir(ctx context.Context, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	paths := map[string]string{} // doc name -> file path
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".sxsi" && ext != ".xml" {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ext)
		if prev, ok := paths[name]; ok && filepath.Ext(prev) == ".sxsi" {
			continue // the saved index wins over the raw source
		}
		paths[name] = filepath.Join(dir, e.Name())
	}

	type job struct{ name, path string }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var errs []error
	for i := 0; i < c.cfg.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := c.Open(j.name, j.path); err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
			}
		}()
	}
feed:
	for name, path := range paths {
		select {
		case jobs <- job{name, path}:
		case <-ctx.Done():
			errMu.Lock()
			errs = append(errs, ctx.Err())
			errMu.Unlock()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return c.Names(), errors.Join(errs...)
}

// Compiled returns the compiled form of query against the named document,
// through the LRU cache. Concurrent misses on the same key may compile the
// query more than once; all but the last result are dropped, which is
// harmless because compiled queries are interchangeable and race-free.
// Compilation failures are returned wrapped in *QueryError.
func (c *Collection) Compiled(doc, query string) (*xpath.Query, error) {
	eng, ok := c.Get(doc)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDoc, doc)
	}
	if c.cache == nil {
		return c.compile(eng, query)
	}
	k := qkey{doc: doc, query: query}
	c.cacheMu.Lock()
	ent, ok := c.cache.get(k)
	c.cacheMu.Unlock()
	// An entry compiled against a different engine is stale: its insertion
	// raced with a replacement of the document (compile started before the
	// replacement, cache.add landed after dropCached). Treat it as a miss
	// and overwrite, so a re-registered name never serves old results.
	if ok && ent.eng == eng {
		c.met.cacheHits.Add(1)
		return ent.q, nil
	}
	c.met.cacheMiss.Add(1)
	q, err := c.compile(eng, query)
	if err != nil {
		return nil, err
	}
	c.cacheMu.Lock()
	c.cache.add(k, cachedQuery{q: q, eng: eng})
	c.cacheMu.Unlock()
	return q, nil
}

func (c *Collection) compile(eng *core.Engine, query string) (*xpath.Query, error) {
	q, err := eng.Compile(query)
	if err != nil {
		return nil, &QueryError{Err: err}
	}
	return q, nil
}

// Mode selects the result semantics of a request.
type Mode uint8

const (
	// ModeCount evaluates in counting mode.
	ModeCount Mode = iota
	// ModeNodes materializes the result node positions.
	ModeNodes
	// ModeSerialize serializes the result subtrees as XML.
	ModeSerialize
	// ModeExists checks for at least one result, lazily: evaluation stops
	// at the first hit instead of producing the whole result set.
	ModeExists
)

func (m Mode) String() string {
	switch m {
	case ModeCount:
		return "count"
	case ModeNodes:
		return "nodes"
	case ModeSerialize:
		return "serialize"
	case ModeExists:
		return "exists"
	}
	return fmt.Sprintf("mode(%d)", m)
}

// ParseMode resolves the wire names used by the HTTP API.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "count", "":
		return ModeCount, nil
	case "nodes":
		return ModeNodes, nil
	case "serialize", "query":
		return ModeSerialize, nil
	case "exists":
		return ModeExists, nil
	}
	return 0, fmt.Errorf("collection: unknown mode %q", s)
}

// Request names one evaluation: a query against a registered document.
type Request struct {
	Doc   string
	Query string
	Mode  Mode
}

// Result carries the outcome of one Request. Count is filled in every mode
// (the number of result nodes; 0 or 1 in ModeExists); Nodes only in
// ModeNodes, Output only in ModeSerialize and Exists only in ModeExists.
type Result struct {
	Doc    string
	Query  string
	Mode   Mode
	Count  int64
	Nodes  []int
	Output []byte
	Exists bool
	Err    error
}

// reqCtx applies the per-request deadline; the returned cancel func is
// always non-nil.
func (c *Collection) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// Do evaluates a single request. Every request counts toward
// Stats.Queries; failed ones (compile errors, unknown documents,
// evaluation failures, deadline expiry) also toward Stats.Errors, except
// cancellations (context.Canceled — the client went away), which count in
// Stats.Canceled so client behavior does not pollute the error rate. An
// evaluator panic is recovered into the Result's Err: batch workers run
// outside net/http's per-request recover, and one poisoned query must not
// take down the daemon and every loaded document with it.
func (c *Collection) Do(req Request) Result {
	return c.DoContext(context.Background(), req)
}

// DoContext is Do bounded by a context (further bounded by the collection's
// RequestTimeout): both evaluation strategies poll the context, so a
// cancelled or expired request stops mid-evaluation and reports the
// context's error.
func (c *Collection) DoContext(ctx context.Context, req Request) (res Result) {
	res = Result{Doc: req.Doc, Query: req.Query, Mode: req.Mode}
	c.met.queries.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("collection: internal error evaluating %q on %q: %v", req.Query, req.Doc, r)
		}
		c.met.done(int(req.Mode), time.Since(start), res.Err)
	}()
	q, err := c.Compiled(req.Doc, req.Query)
	if err != nil {
		res.Err = err
		return res
	}
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	switch req.Mode {
	case ModeCount:
		res.Count, res.Err = q.CountCtx(ctx)
	case ModeNodes:
		res.Nodes, res.Err = q.NodesCtx(ctx)
		res.Count = int64(len(res.Nodes))
	case ModeSerialize:
		var buf bytes.Buffer
		n, err := q.SerializeCtx(ctx, &buf)
		res.Count, res.Output, res.Err = int64(n), buf.Bytes(), err
		if res.Err != nil {
			res.Output = nil // never hand out a truncated serialization
		}
	case ModeExists:
		res.Exists, res.Err = q.Exists(ctx)
		if res.Exists {
			res.Count = 1
		}
	default:
		res.Err = fmt.Errorf("collection: unknown mode %d", req.Mode)
	}
	return res
}

// Serialize evaluates the query on the named document and streams the XML
// serialization of the result subtrees to w, returning the number of
// results. Unlike ModeSerialize requests, nothing is buffered — this is
// the GET /query path, which must handle result sets of any size without
// materializing them. Nothing is written to w before compilation succeeds,
// so a returned error with zero results means no bytes were produced.
func (c *Collection) Serialize(doc, query string, w io.Writer) (int64, error) {
	return c.SerializeContext(context.Background(), doc, query, w)
}

// SerializeContext is Serialize bounded by a context (and the collection's
// RequestTimeout). Cancellation mid-stream returns the context's error
// after a prefix of the results has been written; the HTTP layer turns
// that into an aborted connection rather than a silently truncated body.
func (c *Collection) SerializeContext(ctx context.Context, doc, query string, w io.Writer) (n int64, err error) {
	c.met.queries.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("collection: internal error evaluating %q on %q: %v", query, doc, r)
		}
		c.met.done(modeStream, time.Since(start), err)
	}()
	q, err := c.Compiled(doc, query)
	if err != nil {
		return 0, err
	}
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	k, err := q.SerializeCtx(ctx, w)
	return int64(k), err
}

// Query evaluates a batch of requests on a bounded worker pool of
// Config.Workers goroutines and returns the results in request order. A
// canceled context stops the remaining work: unstarted requests report
// ctx.Err(), and in-flight evaluations observe the same context through
// DoContext and stop mid-run.
func (c *Collection) Query(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	workers := c.cfg.workers()
	if workers > len(reqs) {
		workers = len(reqs)
	}
	idx := make(chan int)
	done := make([]bool, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = c.DoContext(ctx, reqs[i])
				done[i] = true
			}
		}()
	}
	canceled := false
feed:
	for i := range reqs {
		// Checked first because select picks randomly among ready cases: an
		// idle worker must not keep winning against a canceled context.
		if ctx.Err() != nil {
			canceled = true
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			canceled = true
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if canceled {
		// Each index is handed to exactly one worker, and the pool has
		// drained, so done[] is settled: unstarted requests report the
		// cancellation.
		for j := range reqs {
			if !done[j] {
				out[j] = Result{Doc: reqs[j].Doc, Query: reqs[j].Query, Mode: reqs[j].Mode, Err: ctx.Err()}
			}
		}
	}
	return out
}

// Stats is a snapshot of the collection's serving counters. MappedDocs
// counts documents whose index payloads alias a mapped file; MappedBytes
// and HeapBytes aggregate the per-engine split of shared (page-cache
// backed) versus private index memory. Canceled counts requests the client
// abandoned (context.Canceled), kept out of Errors so the error rate
// reflects server behavior only; Reloads counts Reload passes.
// PostingsDocs counts the documents whose search postings exist — built
// by a Search since the document was last opened — and PostingsBytes is
// their heap footprint, which HeapBytes does not include; reading them
// never builds any.
type Stats struct {
	Docs          int   `json:"docs"`
	MappedDocs    int   `json:"mapped_docs"`
	MappedBytes   int64 `json:"mapped_bytes"`
	HeapBytes     int64 `json:"heap_bytes"`
	PostingsDocs  int   `json:"postings_docs"`
	PostingsBytes int64 `json:"postings_bytes"`
	Queries       int64 `json:"queries"`
	Errors        int64 `json:"errors"`
	Canceled      int64 `json:"canceled"`
	Reloads       int64 `json:"reloads"`
	Searches      int64 `json:"searches"`
	SearchErrs    int64 `json:"search_errors"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheLen      int   `json:"cache_len"`
}

// Stats reports the current serving counters.
func (c *Collection) Stats() Stats {
	s := Stats{
		Queries:     c.met.queries.Load(),
		Errors:      c.met.errors.Load(),
		Canceled:    c.met.canceled.Load(),
		Reloads:     c.met.reloads.Load(),
		Searches:    c.met.searches.Load(),
		SearchErrs:  c.met.searchErrs.Load(),
		CacheHits:   c.met.cacheHits.Load(),
		CacheMisses: c.met.cacheMiss.Load(),
	}
	c.mu.RLock()
	s.Docs = len(c.docs)
	for _, eng := range c.docs {
		es := eng.Stats()
		if es.Mapped {
			s.MappedDocs++
		}
		s.MappedBytes += int64(es.MappedBytes)
		s.HeapBytes += int64(es.HeapBytes)
		if dp := eng.PostingsIfBuilt(); dp != nil {
			s.PostingsDocs++
			s.PostingsBytes += int64(dp.SizeInBytes())
		}
	}
	c.mu.RUnlock()
	if c.cache != nil {
		c.cacheMu.Lock()
		s.CacheLen = c.cache.len()
		c.cacheMu.Unlock()
	}
	return s
}
