// Package service exposes a collection of indexed documents over HTTP: the
// `sxsi serve` subcommand is a thin wrapper around this handler. The API is JSON except for GET /query, which streams the same
// bytes the `sxsi query` CLI prints, so the two can be diffed directly:
//
//	GET  /healthz           liveness probe
//	GET  /docs              registered documents with index statistics
//	GET  /count?doc=D&q=Q   {"doc":D,"query":Q,"count":N}
//	GET  /exists?doc=D&q=Q  {"doc":D,"query":Q,"exists":B} (lazy, first hit)
//	GET  /query?doc=D&q=Q   serialized result subtrees (CLI byte-identical)
//	POST /query             {"requests":[{doc,query,mode}]} batch evaluation
//	GET  /search?q=TERMS    BM25-ranked top-k documents (see handleSearch)
//	POST /reload            re-open changed index files (zero-downtime swap)
//	GET  /stats?doc=D       index statistics; without doc, serving counters
//	GET  /metrics           Prometheus text-format serving metrics
//
// The doc parameter of /count, /exists and /query (and the doc field of
// batch items) also accepts "*" — every registered document — or a
// comma-separated list of names; the query then fans out across the
// collection's worker pool and the response merges per-doc results keyed
// by document name (sorted for "*", as given for a list). A failing
// document yields a per-doc error entry without failing its siblings.
//
// Every evaluation runs under the request's context (plus the collection's
// RequestTimeout, if set): a client that disconnects or times out cancels
// the evaluators mid-run instead of leaving them to finish into the void.
// When Config.MaxConcurrent is set, an admission semaphore bounds the
// evaluations in flight; requests beyond MaxConcurrent+MaxQueue are
// rejected with 429 and a Retry-After hint instead of piling up goroutines.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
)

// Config tunes the HTTP layer; the zero value imposes no admission limits.
type Config struct {
	// MaxConcurrent bounds the number of query-evaluating requests running
	// at once (a batch or fan-out counts as one; its internal parallelism
	// is already bounded by the collection's worker pool). Zero means
	// unlimited.
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for an evaluation slot
	// when MaxConcurrent are running; beyond it the server answers 429
	// with a Retry-After hint. Zero means no queue: reject as soon as the
	// slots are full.
	MaxQueue int
}

// Server is the HTTP front end of a Collection.
type Server struct {
	c       *collection.Collection
	mux     *http.ServeMux
	started time.Time
	adm     *admission
}

// New builds the handler for a collection with no admission limits.
func New(c *collection.Collection) *Server { return NewWithConfig(c, Config{}) }

// NewWithConfig builds the handler for a collection.
func NewWithConfig(c *collection.Collection, cfg Config) *Server {
	s := &Server{c: c, mux: http.NewServeMux(), started: time.Now(), adm: newAdmission(cfg)}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /docs", s.handleDocs)
	s.mux.HandleFunc("GET /count", s.handleProbe(collection.ModeCount))
	s.mux.HandleFunc("GET /exists", s.handleProbe(collection.ModeExists))
	s.mux.HandleFunc("GET /query", s.handleQueryGet)
	s.mux.HandleFunc("POST /query", s.handleQueryPost)
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Collection returns the served collection.
func (s *Server) Collection() *collection.Collection { return s.c }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// statusClientClosedRequest is nginx's 499: the client closed the
// connection before the server finished answering. net/http has no
// constant for it; no response actually reaches the client, but the access
// log and metrics should not blame the server (500) for client behavior.
const statusClientClosedRequest = 499

// statusFor maps evaluation errors to HTTP statuses: unknown documents are
// 404, malformed queries (parse or unsupported-fragment errors, wrapped in
// *collection.QueryError) are 400, a request that outran its per-request
// deadline is 504, a client that went away mid-evaluation is 499, and
// anything else is a server-side evaluation failure, 500.
func statusFor(err error) int {
	if errors.Is(err, collection.ErrUnknownDoc) {
		return http.StatusNotFound
	}
	if errors.Is(err, collection.ErrSearchDisabled) {
		return http.StatusNotImplemented
	}
	var qerr *collection.QueryError
	if errors.As(err, &qerr) {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// admit gates a query-evaluating handler through the admission semaphore.
// It reports whether the request may proceed; when it may, the caller must
// call release. A full queue answers 429 with a Retry-After hint, and a
// client that disconnects while queued is dropped with 499.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	switch err := s.adm.acquire(r.Context()); {
	case err == nil:
		return s.adm.release, true
	case errors.Is(err, errAdmissionFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	default: // context canceled while queued
		writeError(w, statusFor(err), err)
	}
	return nil, false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// DocInfo describes one registered document.
type DocInfo struct {
	Name string `json:"name"`
	core.Stats
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	names := s.c.Names()
	docs := make([]DocInfo, 0, len(names))
	for _, name := range names {
		eng, ok := s.c.Get(name)
		if !ok {
			continue // removed between Names and Get
		}
		docs = append(docs, DocInfo{Name: name, Stats: eng.Stats()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"docs": docs})
}

// reqParams extracts doc and q, both required.
func reqParams(r *http.Request) (doc, q string, err error) {
	doc = r.URL.Query().Get("doc")
	q = r.URL.Query().Get("q")
	if doc == "" {
		return "", "", fmt.Errorf("missing doc parameter")
	}
	if q == "" {
		return "", "", fmt.Errorf("missing q parameter")
	}
	return doc, q, nil
}

// expandDocs resolves the doc parameter into the target document list.
// "*" selects every registered document (sorted); a comma-separated list
// selects the named documents in the given order. multi reports whether
// the spec was a fan-out form — a single plain name keeps the classic
// single-document response shape and statuses.
func (s *Server) expandDocs(spec string) (docs []string, multi bool) {
	if spec == "*" {
		return s.c.Names(), true
	}
	if !strings.Contains(spec, ",") {
		return []string{spec}, false
	}
	for _, d := range strings.Split(spec, ",") {
		if d = strings.TrimSpace(d); d != "" {
			docs = append(docs, d)
		}
	}
	return docs, true
}

type countBody struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
	Count int64  `json:"count"`
}

// docCount is one document's slice of a fan-out count.
type docCount struct {
	Doc   string `json:"doc"`
	Count int64  `json:"count"`
	Error string `json:"error,omitempty"`
}

// multiCountBody is the fan-out response of GET /count: per-doc counts
// keyed by document name plus their sum over the successful documents.
type multiCountBody struct {
	Query string     `json:"query"`
	Total int64      `json:"total"`
	Docs  []docCount `json:"docs"`
}

type existsBody struct {
	Doc    string `json:"doc"`
	Query  string `json:"query"`
	Exists bool   `json:"exists"`
}

// docExists is one document's slice of a fan-out existence probe.
type docExists struct {
	Doc    string `json:"doc"`
	Exists bool   `json:"exists"`
	Error  string `json:"error,omitempty"`
}

// multiExistsBody is the fan-out response of GET /exists; Any reports
// whether the query matched in at least one document.
type multiExistsBody struct {
	Query string      `json:"query"`
	Any   bool        `json:"any"`
	Docs  []docExists `json:"docs"`
}

// handleProbe serves GET /count (ModeCount) and GET /exists (ModeExists),
// which share parameters, admission and the doc=* / comma-list fan-out and
// differ only in the body shapes. /exists answers "does this query select
// anything" lazily: evaluation stops at the first verified result, so it is
// the cheap way to probe selective queries on large documents.
func (s *Server) handleProbe(mode collection.Mode) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, q, err := reqParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		docs, multi := s.expandDocs(doc)
		if !multi {
			res := s.c.DoContext(r.Context(), collection.Request{Doc: doc, Query: q, Mode: mode})
			if res.Err != nil {
				writeError(w, statusFor(res.Err), res.Err)
				return
			}
			if mode == collection.ModeExists {
				writeJSON(w, http.StatusOK, existsBody{Doc: doc, Query: q, Exists: res.Exists})
			} else {
				writeJSON(w, http.StatusOK, countBody{Doc: doc, Query: q, Count: res.Count})
			}
			return
		}
		// Fan out on the collection's worker pool; results come back in
		// docs order.
		reqs := make([]collection.Request, len(docs))
		for i, d := range docs {
			reqs[i] = collection.Request{Doc: d, Query: q, Mode: mode}
		}
		results := s.c.Query(r.Context(), reqs)
		if mode == collection.ModeExists {
			out := multiExistsBody{Query: q, Docs: make([]docExists, len(results))}
			for i, res := range results {
				out.Docs[i] = docExists{Doc: res.Doc, Exists: res.Exists, Error: errText(res.Err)}
				out.Any = out.Any || (res.Err == nil && res.Exists)
			}
			writeJSON(w, http.StatusOK, out)
			return
		}
		out := multiCountBody{Query: q, Docs: make([]docCount, len(results))}
		for i, res := range results {
			out.Docs[i] = docCount{Doc: res.Doc, Count: res.Count, Error: errText(res.Err)}
			if res.Err == nil {
				out.Total += res.Count
			}
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// handleQueryGet streams the serialized result subtrees — for a single
// document, exactly the bytes `sxsi query` writes to stdout for the same
// document and query. The serialization goes straight to the response
// writer, so arbitrarily large result sets never buffer in memory (the
// transfer as a whole is bounded by the server's WriteTimeout), and the
// stream is flushed periodically so long-running queries make visible
// progress. Collection.SerializeContext writes nothing before compilation
// succeeds, so errors raised before the first byte still map to a proper
// status.
//
// With doc=* or a comma list, the documents stream back to back in
// per-doc frames: each document's results are preceded by a comment line
// `<!-- doc: NAME -->`, and a document that fails yields an error comment
// instead of failing the whole stream. Documents stream sequentially —
// interleaving would garble the XML — so memory stays bounded at one
// in-flight serialization.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	doc, q, err := reqParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	docs, multi := s.expandDocs(doc)
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	tw := newTrackingWriter(w)
	if !multi {
		if _, err := s.c.SerializeContext(r.Context(), doc, q, tw); err != nil {
			if !tw.wrote {
				// Nothing sent yet: writeError replaces the headers set above.
				writeError(w, statusFor(err), err)
				return
			}
			// Mid-stream failure: abort the connection rather than pretend the
			// truncated body is a complete result.
			panic(http.ErrAbortHandler)
		}
		return
	}
	// A query that does not compile fails identically on every document;
	// answer a clean 400 instead of a stream of error comments. Unknown
	// documents stay per-doc errors (another doc in the list may compile).
	for _, d := range docs {
		_, err := s.c.Compiled(d, q)
		if err == nil {
			break
		}
		var qerr *collection.QueryError
		if errors.As(err, &qerr) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	for _, d := range docs {
		fmt.Fprintf(tw, "<!-- doc: %s -->\n", commentSafe(d))
		if _, err := s.c.SerializeContext(r.Context(), d, q, tw); err != nil {
			if r.Context().Err() != nil {
				// The client is gone or the deadline passed: no point in
				// continuing with the remaining documents.
				panic(http.ErrAbortHandler)
			}
			// Per-doc isolation: report this document's failure in-band and
			// keep streaming its siblings.
			fmt.Fprintf(tw, "<!-- doc: %s error: %s -->\n", commentSafe(d), commentSafe(err.Error()))
		}
		tw.flush()
	}
}

// commentSafe makes s safe to embed in an XML comment ("--" cannot occur
// inside one).
func commentSafe(s string) string { return strings.ReplaceAll(s, "--", "- -") }

// flushEvery is how many streamed bytes may accumulate before the
// response is flushed to the client.
const flushEvery = 32 << 10

// trackingWriter wraps the response writer of a streamed GET /query. It
// records whether any body byte reached the client (which decides between
// a clean error response and an aborted connection) and flushes the
// response every flushEvery bytes, so long-running streams show progress
// instead of sitting in net/http's buffer.
type trackingWriter struct {
	w         http.ResponseWriter
	rc        *http.ResponseController
	wrote     bool
	unflushed int
}

func newTrackingWriter(w http.ResponseWriter) *trackingWriter {
	return &trackingWriter{w: w, rc: http.NewResponseController(w)}
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		t.wrote = true
	}
	n, err := t.w.Write(p)
	t.unflushed += n
	if err == nil && t.unflushed >= flushEvery {
		t.flush()
	}
	return n, err
}

// flush forwards to the underlying connection's Flusher, if any
// (ResponseController also reaches Flush through wrapping middlewares).
func (t *trackingWriter) flush() {
	t.unflushed = 0
	t.rc.Flush() // best-effort: ErrNotSupported just means no streaming
}

// BatchRequest is the POST /query body.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// BatchItem is one request of a batch; mode is "count" (default), "nodes",
// "serialize" or "exists", and doc accepts the same "*" / comma-list
// fan-out forms as GET /count (the item expands into one result per
// document). Serialize results are buffered into the JSON response, so the
// batch endpoint suits counts and small extractions; stream large result
// sets through GET /query instead.
type BatchItem struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
	Mode  string `json:"mode,omitempty"`
}

// BatchResult is one result of a batch response.
type BatchResult struct {
	Doc    string `json:"doc"`
	Query  string `json:"query"`
	Mode   string `json:"mode"`
	Count  int64  `json:"count"`
	Nodes  []int  `json:"nodes,omitempty"`
	Output string `json:"output,omitempty"`
	Exists bool   `json:"exists,omitempty"`
	Error  string `json:"error,omitempty"`
}

const maxBatchBody = 16 << 20 // 16 MiB

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	// MaxBytesReader (unlike a bare LimitReader) makes an oversized body a
	// distinguishable error instead of a silent truncation that surfaces
	// as a confusing JSON parse failure.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err == nil {
		err = json.Unmarshal(body, &batch)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch body exceeds the %d-byte limit; split the batch", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err))
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	var reqs []collection.Request
	for _, item := range batch.Requests {
		mode, err := collection.ParseMode(item.Mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		docs, _ := s.expandDocs(item.Doc)
		for _, d := range docs {
			reqs = append(reqs, collection.Request{Doc: d, Query: item.Query, Mode: mode})
		}
	}
	results := s.c.Query(r.Context(), reqs)
	out := make([]BatchResult, len(results))
	for i, res := range results {
		out[i] = BatchResult{
			Doc:    res.Doc,
			Query:  res.Query,
			Mode:   res.Mode.String(),
			Count:  res.Count,
			Nodes:  res.Nodes,
			Output: string(res.Output),
			Exists: res.Exists,
			Error:  errText(res.Err),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

// handleReload re-stats every file-backed document and swaps the changed
// ones in with zero downtime: the swap is a registry pointer flip, queries
// already running finish on the old engine (whose mapping stays alive
// until they do), and the compiled-query cache entries of swapped
// documents are dropped. The response is the collection.ReloadReport.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	rep := s.c.Reload(r.Context())
	status := http.StatusOK
	if len(rep.Failed) > 0 {
		status = http.StatusMultiStatus
	}
	writeJSON(w, status, rep)
}

type serviceStats struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Collection    collection.Stats `json:"collection"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if doc := r.URL.Query().Get("doc"); doc != "" {
		eng, ok := s.c.Get(doc)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", collection.ErrUnknownDoc, doc))
			return
		}
		writeJSON(w, http.StatusOK, DocInfo{Name: doc, Stats: eng.Stats()})
		return
	}
	writeJSON(w, http.StatusOK, serviceStats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Collection:    s.c.Stats(),
	})
}

// sortedNames returns the keys of m, sorted — stable iteration for
// rendered output.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
