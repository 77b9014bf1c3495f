package service

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/collection"
)

// handleMetrics renders the serving metrics in the Prometheus text
// exposition format (version 0.0.4), hand-rolled so the module stays
// dependency-free: counters for queries/errors/cancellations, per-mode
// latency histograms, compiled-query cache statistics, the mapped/heap
// split of index memory, admission-control gauges and a few Go runtime
// numbers. The endpoint is cheap (atomic loads plus one pass over the
// registry) and is not admission-gated, so scrapes keep working while the
// server sheds query load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.c.Metrics()
	var b bytes.Buffer

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
	}

	gauge("sxsi_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	counter("sxsi_queries_total", "Evaluations started (single, batch and fan-out requests each count per document).", m.Queries)
	counter("sxsi_query_errors_total", "Evaluations that failed server-side (bad queries, unknown docs, evaluation failures, deadline expiry).", m.Errors)
	counter("sxsi_query_canceled_total", "Evaluations abandoned by the client (context canceled); kept out of the error counter.", m.Canceled)
	counter("sxsi_reloads_total", "Reload passes over the file-backed documents.", m.Reloads)
	counter("sxsi_search_total", "Ranked full-text searches started (GET /search and Collection.Search).", m.Searches)
	counter("sxsi_search_errors_total", "Searches that failed server-side (bad queries, deadline expiry, internal errors).", m.SearchErrs)

	counter("sxsi_cache_hits_total", "Compiled-query cache hits.", m.CacheHits)
	counter("sxsi_cache_misses_total", "Compiled-query cache misses.", m.CacheMisses)
	ratio := 0.0
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		ratio = float64(m.CacheHits) / float64(lookups)
	}
	gauge("sxsi_cache_hit_ratio", "Compiled-query cache hits over lookups.", ratio)
	gauge("sxsi_cache_entries", "Compiled queries currently cached.", float64(m.CacheLen))

	gauge("sxsi_docs", "Registered documents.", float64(m.Docs))
	gauge("sxsi_mapped_docs", "Documents whose index is memory-mapped.", float64(m.MappedDocs))
	gauge("sxsi_index_mapped_bytes", "Index bytes aliasing mapped files (shared with the page cache).", float64(m.MappedBytes))
	gauge("sxsi_index_heap_bytes", "Index bytes held on the Go heap (private).", float64(m.HeapBytes))
	gauge("sxsi_postings_docs", "Documents whose search postings exist (built by the first search after the document was opened).", float64(m.PostingsDocs))
	gauge("sxsi_postings_bytes", "Heap bytes of the search postings built so far (not part of sxsi_index_heap_bytes).", float64(m.PostingsBytes))

	writeLatencyHistogram(&b, m.Latency)
	writeSearchHistogram(&b, m.SearchLatency)

	if s.adm != nil {
		gauge("sxsi_admission_in_flight", "Query-evaluating requests currently holding an admission slot.", float64(s.adm.inFlight()))
		gauge("sxsi_admission_queued", "Requests waiting for an admission slot.", float64(s.adm.queuedNow()))
		counter("sxsi_admission_rejected_total", "Requests rejected with 429 because slots and queue were full.", s.adm.rejectedTotal())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("sxsi_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	gauge("sxsi_go_heap_alloc_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", float64(ms.HeapAlloc))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// writeLatencyHistogram renders the per-mode evaluation latency as one
// Prometheus histogram family with a mode label, cumulative buckets and
// the conventional _sum/_count series.
func writeLatencyHistogram(b *bytes.Buffer, lat map[string]collection.HistogramSnapshot) {
	const name = "sxsi_query_duration_seconds"
	fmt.Fprintf(b, "# HELP %s Evaluation latency by mode (stream = GET /query serializations).\n# TYPE %s histogram\n", name, name)
	for _, mode := range sortedNames(lat) {
		h := lat[mode]
		for i, bound := range collection.LatencyBuckets {
			fmt.Fprintf(b, "%s_bucket{mode=%q,le=%q} %d\n", name, mode, fmtFloat(bound), h.Counts[i])
		}
		fmt.Fprintf(b, "%s_bucket{mode=%q,le=\"+Inf\"} %d\n", name, mode, h.Count)
		fmt.Fprintf(b, "%s_sum{mode=%q} %s\n", name, mode, fmtFloat(h.SumSeconds))
		fmt.Fprintf(b, "%s_count{mode=%q} %d\n", name, mode, h.Count)
	}
}

// writeSearchHistogram renders the end-to-end Search latency (a search
// spans many per-document evaluations, so it gets its own family instead
// of a mode label in the per-evaluation histogram).
func writeSearchHistogram(b *bytes.Buffer, h collection.HistogramSnapshot) {
	const name = "sxsi_search_duration_seconds"
	fmt.Fprintf(b, "# HELP %s End-to-end ranked search latency (GET /search).\n# TYPE %s histogram\n", name, name)
	for i, bound := range collection.LatencyBuckets {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmtFloat(bound), h.Counts[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(b, "%s_sum %s\n", name, fmtFloat(h.SumSeconds))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
