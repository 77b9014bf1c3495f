// Command sxsi indexes XML documents and evaluates Core+ XPath queries.
//
// The build-once / query-many workflow:
//
//	sxsi build -i doc.xml -o doc.sxsi            index a document and save it
//	sxsi query -i doc.sxsi '//listitem//keyword' load the index, serialize results
//	sxsi count -i doc.sxsi '//keyword'           load the index, print the count
//	sxsi stats -i doc.sxsi                       index statistics
//	sxsi search -dir ./docs 'ocean "coral reef"' BM25-ranked full-text search
//	sxsi serve -dir ./indexes -addr :8080        serve a directory over HTTP
//
// Query and count accept either a saved index (memory-mapped by default,
// so opening is near-instant regardless of index size; -no-mmap reads the
// file into memory instead) or a raw XML file (indexed on the fly); the
// two are distinguished by the index magic number. The query may be given
// positionally or with -q. "index" is accepted as an alias of "build" and
// -in/-out as aliases of -i/-o.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/xpath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	in := fs.String("i", "", "input file (.xml or saved index)")
	out := fs.String("o", "", "output index file (for 'build')")
	q := fs.String("q", "", "XPath query (may also be given positionally)")
	sample := fs.Int("sample", 64, "FM-index sampling rate l")
	procs := fs.Int("p", 0, "parallel build workers (0 = all CPUs; for 'build')")
	mem := fs.String("mem", "", "build memory budget, e.g. 512M or 2G (empty = unbounded; for 'build')")
	noMmap := fs.Bool("no-mmap", false, "load saved indexes by copying instead of memory-mapping")
	addr := fs.String("addr", ":8080", "listen address (for 'serve')")
	dir := fs.String("dir", "", "document directory (for 'serve')")
	workers := fs.Int("workers", 0, "worker pool size for 'serve' (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "compiled-query LRU capacity for 'serve'")
	strategy := fs.String("strategy", "auto", "evaluation strategy: auto, top-down or bottom-up (for 'query' and 'count')")
	timeout := fs.Duration("timeout", 0, "per-request evaluation deadline for 'serve' (0 = none)")
	watch := fs.Duration("watch", 0, "poll loaded files every D and hot-swap changed ones for 'serve' (0 = off)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address for 'serve' (empty = off)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrent evaluations for 'serve' (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "max queued requests before 429 for 'serve'")
	xpathFilter := fs.String("xpath", "", "restrict 'search' hits to documents matching this XPath")
	topK := fs.Int("k", 0, "number of ranked hits for 'search' (0 = default 10)")
	fs.StringVar(in, "in", "", "alias of -i")
	fs.StringVar(out, "out", "", "alias of -o")
	fs.Parse(os.Args[2:])
	if *q == "" && fs.NArg() > 0 {
		if cmd == "search" {
			// Search terms may be given as separate words: join them back
			// into one query (`sxsi search -dir . dark horse`).
			*q = strings.Join(fs.Args(), " ")
		} else {
			*q = fs.Arg(0)
		}
	}

	cfg := core.Config{SampleRate: *sample, NoMmap: *noMmap, BuildProcs: *procs}
	if *mem != "" {
		budget, err := parseMem(*mem)
		if err != nil {
			fatal(err.Error())
		}
		cfg.MemoryBudget = budget
	}
	st, err := xpath.ParseStrategy(*strategy)
	if err != nil {
		fatal(err.Error())
	}
	cfg.Query.ForceStrategy = st
	if cmd == "search" {
		if *dir == "" {
			fatal("missing -dir document directory")
		}
		if *q == "" {
			fatal("missing search terms")
		}
		runSearch(*dir, *q, *xpathFilter, *topK,
			collection.Config{Workers: *workers, CacheSize: *cacheSize, RequestTimeout: *timeout, Index: cfg})
		return
	}
	if cmd == "serve" {
		if *dir == "" {
			fatal("missing -dir document directory")
		}
		opts := service.Options{
			Addr:       *addr,
			Dir:        *dir,
			DebugAddr:  *debugAddr,
			Watch:      *watch,
			HTTP:       service.Config{MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue},
			Collection: collection.Config{Workers: *workers, CacheSize: *cacheSize, RequestTimeout: *timeout, Index: cfg},
		}
		check(service.Run(opts, os.Stderr))
		return
	}

	if *in == "" {
		fatal("missing -i input file")
	}

	// A build or a query may run for a long time on large corpora: make
	// SIGINT and SIGTERM cancel it cleanly. Every build stage and both
	// evaluation strategies poll the context, and an interrupted save
	// removes its temporary file, so no partial .sxsi or orphaned .sxsi.tmp
	// is left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch cmd {
	case "build", "index":
		if *out == "" {
			fatal("missing -o output index file")
		}
		data, err := os.ReadFile(*in)
		check(err)
		var eng *core.Engine
		if core.IsIndexData(data) {
			eng, err = core.Load(bytes.NewReader(data), cfg)
		} else {
			eng, err = core.BuildContext(ctx, data, cfg)
		}
		check(err)
		n, err := eng.SaveFileCtx(ctx, *out)
		check(err)
		fmt.Printf("wrote %d bytes to %s\n", n, *out)
	case "count":
		if *q == "" {
			fatal("missing query")
		}
		n, err := open(ctx, *in, cfg).Count(ctx, *q)
		check(err)
		fmt.Println(n)
	case "query":
		if *q == "" {
			fatal("missing query")
		}
		w := bufio.NewWriter(os.Stdout)
		_, err := open(ctx, *in, cfg).Serialize(ctx, *q, w)
		check(err)
		check(w.Flush())
	case "stats":
		st := open(ctx, *in, cfg).Stats()
		fmt.Printf("nodes:        %d\n", st.Nodes)
		fmt.Printf("texts:        %d\n", st.Texts)
		fmt.Printf("distinct tags:%d\n", st.Tags)
		fmt.Printf("tree bytes:   %d\n", st.TreeBytes)
		fmt.Printf("fm bytes:     %d\n", st.TextBytes)
		fmt.Printf("plain bytes:  %d\n", st.PlainBytes)
		fmt.Printf("mapped:       %v\n", st.Mapped)
		fmt.Printf("mapped bytes: %d\n", st.MappedBytes)
		fmt.Printf("heap bytes:   %d\n", st.HeapBytes)
	default:
		usage()
	}
}

// runSearch loads every document under dir into a collection and prints
// the BM25-ranked hits of the term query, one per line:
//
//	RANK. NAME  SCORE  [nodes=N]  SNIPPET
//
// An -xpath filter keeps only documents where the expression selects at
// least one node (N in the output).
func runSearch(dir, terms, xpathFilter string, k int, ccfg collection.Config) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := collection.New(ccfg)
	names, err := c.LoadDir(ctx, dir)
	check(err)
	if len(names) == 0 {
		fatal("no .xml or .sxsi documents under " + dir)
	}
	rep, err := c.Search(ctx, terms, xpathFilter, k)
	check(err)
	fmt.Printf("%d candidates, %d matched\n", rep.Candidates, rep.Matched)
	for i, h := range rep.Hits {
		fmt.Printf("%2d. %-20s %8.4f", i+1, h.Doc, h.Score)
		if xpathFilter != "" {
			fmt.Printf("  nodes=%d", h.Nodes)
		}
		if h.Snippet != "" {
			fmt.Printf("  %s", h.Snippet)
		}
		fmt.Println()
	}
	for _, name := range sortedKeys(rep.Failed) {
		fmt.Fprintf(os.Stderr, "sxsi: %s: %s\n", name, rep.Failed[name])
	}
}

// sortedKeys returns the keys of m, sorted.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// open loads a saved index (memory-mapped unless -no-mmap) or builds one
// from raw XML, sniffing the magic.
func open(ctx context.Context, path string, cfg core.Config) *core.Engine {
	f, err := os.Open(path)
	check(err)
	head := make([]byte, 16)
	n, _ := io.ReadFull(f, head) // shorter files simply fail the magic check
	check(f.Close())
	if core.IsIndexData(head[:n]) {
		eng, err := core.OpenFile(path, cfg)
		check(err)
		return eng
	}
	data, err := os.ReadFile(path)
	check(err)
	eng, err := core.BuildContext(ctx, data, cfg)
	check(err)
	return eng
}

// parseMem parses a memory budget: a plain byte count, or a number with a
// K/M/G/T suffix (binary units), case-insensitive, e.g. "512M", "2g".
func parseMem(s string) (int64, error) {
	t := strings.TrimSpace(s)
	shift := 0
	switch {
	case t == "":
		return 0, fmt.Errorf("invalid memory budget %q", s)
	default:
		switch t[len(t)-1] {
		case 'k', 'K':
			shift, t = 10, t[:len(t)-1]
		case 'm', 'M':
			shift, t = 20, t[:len(t)-1]
		case 'g', 'G':
			shift, t = 30, t[:len(t)-1]
		case 't', 'T':
			shift, t = 40, t[:len(t)-1]
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n <= 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("invalid memory budget %q (want e.g. 512M, 2G)", s)
	}
	return n << shift, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sxsi <command> -i FILE [flags] [QUERY]

commands:
  build  -i doc.xml  -o doc.sxsi    index a document and save the index
  query  -i doc.sxsi 'XPATH'        evaluate and serialize result subtrees
  count  -i doc.sxsi 'XPATH'        evaluate in counting mode
  stats  -i doc.sxsi                print index statistics
  search -dir DIR 'TERMS'           BM25-ranked full-text search over a directory
  serve  -dir DIR [-addr :8080]     serve a directory of documents over HTTP

flags: -sample N (FM sampling rate),
       -p N (build: parallel workers, 0 = all CPUs),
       -mem BUDGET (build: transient memory budget, e.g. 512M or 2G),
       -no-mmap (read saved indexes into memory instead of mapping them),
       -strategy auto|top-down|bottom-up (force the evaluation strategy),
       -workers N / -cache N (serve worker pool and query-cache size),
       -timeout D (serve per-request evaluation deadline, e.g. 30s),
       -watch D (serve: poll files and hot-swap changed indexes),
       -debug-addr A (serve: net/http/pprof listener),
       -max-concurrent N / -max-queue N (serve: admission control, 429 when full),
       -xpath EXPR / -k N (search: structural filter, top-k)`)
	os.Exit(2)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "sxsi:", msg)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sxsi:", err)
		os.Exit(1)
	}
}
