package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/collection"
)

// Options configures Run, the body of `sxsi serve`.
type Options struct {
	// Addr is the main listen address (required).
	Addr string
	// Dir, when set, is bulk-loaded into the collection before serving.
	Dir string
	// DebugAddr, when set, serves net/http/pprof on a second listener,
	// kept off the query port so profiling endpoints are never exposed to
	// query clients by accident.
	DebugAddr string
	// Watch, when positive, polls the file-backed documents every Watch
	// and hot-swaps the ones whose files changed (the polling twin of
	// POST /reload).
	Watch time.Duration
	// HTTP tunes admission control on the query endpoints.
	HTTP Config
	// Collection configures the served collection.
	Collection collection.Config
}

// Run loads every .sxsi/.xml file under opts.Dir into a fresh collection
// and serves it on opts.Addr until the listener fails. Per-file load
// failures are logged and the surviving documents are served; Run only
// fails up front when addr cannot be bound or nothing at all could be
// loaded from a requested dir.
func Run(opts Options, logw io.Writer) error {
	c := collection.New(opts.Collection)
	if opts.Dir != "" {
		start := time.Now()
		names, err := c.LoadDir(context.Background(), opts.Dir)
		if err != nil {
			if len(names) == 0 {
				return fmt.Errorf("load %s: %w", opts.Dir, err)
			}
			fmt.Fprintf(logw, "warning: some documents failed to load: %v\n", err)
		}
		fmt.Fprintf(logw, "loaded %d document(s) in %v: %s\n",
			len(names), time.Since(start).Round(time.Millisecond), strings.Join(names, " "))
	}
	if opts.DebugAddr != "" {
		go func() {
			fmt.Fprintf(logw, "pprof listening on %s\n", opts.DebugAddr)
			err := http.ListenAndServe(opts.DebugAddr, debugMux())
			fmt.Fprintf(logw, "warning: pprof listener failed: %v\n", err)
		}()
	}
	if opts.Watch > 0 {
		go watchReload(c, opts.Watch, logw)
	}
	fmt.Fprintf(logw, "listening on %s\n", opts.Addr)
	srv := &http.Server{
		Addr:    opts.Addr,
		Handler: NewWithConfig(c, opts.HTTP),
		// Bound slow clients on both sides so a trickled request or a
		// slow-reading response consumer cannot pin goroutines and file
		// descriptors indefinitely. WriteTimeout is the ceiling on one
		// whole response transfer — streamed GET /query bodies are
		// unbounded in size but not in time.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.ListenAndServe()
}

// watchReload polls the collection's file-backed documents and hot-swaps
// changed ones, logging every pass that did something. It runs for the
// life of the daemon.
func watchReload(c *collection.Collection, every time.Duration, logw io.Writer) {
	for range time.Tick(every) {
		rep := c.Reload(context.Background())
		if len(rep.Reloaded) > 0 || len(rep.Removed) > 0 || len(rep.Failed) > 0 {
			fmt.Fprintf(logw, "reload: %d reloaded %v, %d removed %v, %d unchanged, failures: %v\n",
				len(rep.Reloaded), rep.Reloaded, len(rep.Removed), rep.Removed, rep.Unchanged, rep.Failed)
		}
	}
}

// debugMux is the pprof handler set on its own mux (importing
// net/http/pprof for its side effect would also pollute
// http.DefaultServeMux).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
