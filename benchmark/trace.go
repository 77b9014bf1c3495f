package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/collection"
	"repro/internal/search"
	"repro/internal/xpath"
)

// The traced replay times, from outside the program, the calls into each
// layer's public functions: for every replayed operation it sends the HTTP
// request, then makes the same request directly on the collection, then on
// the compiled query, then issues the FM-index calls the query's literals
// need — one layer at a time, single-threaded and warm. A span's duration is
// therefore real, but a child span did not run inside its parent's
// interval: it is the same work, repeated one layer down. A parent's self
// time is its duration minus its children's durations.

// span is one timed call. Start and End lay the span out on a timeline
// (ns since the trace began) on which children sit inside their parent,
// packed from its start; Dur is the measured duration and is what every
// metric is computed from. When replay noise makes children add up to more
// than their parent, the layout clips them to the parent's end and Self is 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // slot of the operation in the sequence
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span // spans[i].ID == i+1
}

// time runs fn as a span under parent (0 for a root) and returns its id.
func (t *tracer) time(op, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(op, parent, name, start, time.Since(start))
}

func (t *tracer) add(op, parent int, name string, start time.Time, dur time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), Dur: int64(dur)})
	return len(t.spans)
}

// finish computes self times and lays children out inside their parents.
// A span is always appended after its parent, so one forward pass suffices.
func (t *tracer) finish() {
	next := make([]int64, len(t.spans)+1) // where each span's next child starts
	for i := range t.spans {
		sp := &t.spans[i]
		sp.Self = sp.Dur
		sp.End = sp.Start + sp.Dur
		if sp.Parent != 0 {
			p := &t.spans[sp.Parent-1]
			p.Self = max(p.Self-sp.Dur, 0)
			sp.Start = min(next[p.ID], p.End)
			sp.End = min(sp.Start+sp.Dur, p.End)
			next[p.ID] = sp.End
		}
		next[sp.ID] = sp.Start
	}
}

// byName picks the spans with one name; childOf those that also hang
// under a parent with another.
func byName(name string) func(*tracer, *span) bool {
	return func(_ *tracer, sp *span) bool { return sp.Name == name }
}

func childOf(parent, name string) func(*tracer, *span) bool {
	return func(t *tracer, sp *span) bool {
		return sp.Name == name && sp.Parent != 0 && t.spans[sp.Parent-1].Name == parent
	}
}

// durs and selfs return the durations and the self times, in ns, of the
// spans pick accepts.
func (t *tracer) durs(pick func(*tracer, *span) bool) []float64 {
	return t.values(pick, func(sp *span) int64 { return sp.Dur })
}

func (t *tracer) selfs(pick func(*tracer, *span) bool) []float64 {
	return t.values(pick, func(sp *span) int64 { return sp.Self })
}

func (t *tracer) values(pick func(*tracer, *span) bool, of func(*span) int64) []float64 {
	var out []float64
	for i := range t.spans {
		if pick(t, &t.spans[i]) {
			out = append(out, float64(of(&t.spans[i])))
		}
	}
	return out
}

func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// plainCutoff is the planner's documented switch point (Section 3.4): a
// contains or ends-with literal with more occurrences than this is matched
// by scanning the plain texts instead of locating through the FM-index.
const plainCutoff = 20000

// counters are the exact counts the replay gathers through public accessors;
// the replay is single-threaded, so "the last call's statistics" is well
// defined.
type counters struct {
	xpathOps, bottomUp       int   // cold evaluations, and how many the planner ran bottom-up
	visited, marked, results int64 // top-down counting evaluations
	topDownNs                int64
	firstEvalNs, fmNs        int64 // cold evaluations, and the FM-index calls inside them
	hits                     int64 // search hits snippeted
}

// topDown adds the statistics of the evaluation q just finished, when the
// automaton ran it.
func (c *counters) topDown(q *xpath.Query, dur, results int64) {
	if q.UsesBottomUp() {
		return
	}
	st := q.Stats()
	c.visited, c.marked, c.results, c.topDownNs = c.visited+st.Visited, c.marked+st.Marked, c.results+results, c.topDownNs+dur
}

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// replay traces one operation. first reports whether this is the first time
// the replay meets this distinct operation; the cold path (compile, first
// evaluation, FM-index calls) is traced once per distinct operation.
func (t *tracer) replay(ctx context.Context, s *served, cl *client, slot int, op *opSpec, first bool, cnt *counters) error {
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	c := s.coll
	// The spans below the request repeat it with the compiled query cached,
	// so the request they are subtracted from must have found it cached too:
	// one that had to compile is kept under another name, and sent again.
	misses := c.Stats().CacheMisses
	svc := t.time(slot, 0, "service.request", func() { _, e := cl.do(op); fail(e) })
	if c.Stats().CacheMisses != misses {
		t.spans[svc-1].Name = "service.request_miss"
		svc = t.time(slot, 0, "service.request", func() { _, e := cl.do(op); fail(e) })
	}
	switch op.kind {
	case kindCount, kindExists:
		mode := collection.ModeCount
		if op.kind == kindExists {
			mode = collection.ModeExists
		}
		do := t.time(slot, svc, "collection.do", func() {
			fail(c.DoContext(ctx, collection.Request{Doc: op.doc, Query: op.query, Mode: mode}).Err)
		})
		var q *xpath.Query
		t.time(slot, do, "collection.compiled", func() { var e error; q, e = c.Compiled(op.doc, op.query); fail(e) })
		if q == nil {
			return err
		}
		if op.kind == kindExists {
			t.time(slot, do, "xpath.exists", func() { _, e := q.Exists(ctx); fail(e) })
		} else {
			var n int64
			ev := t.time(slot, do, "xpath.eval", func() { var e error; n, e = q.CountCtx(ctx); fail(e) })
			cnt.topDown(q, t.spans[ev-1].Dur, n)
		}
		if first {
			fail(t.cold(ctx, s, slot, op.doc, op.query, op.kind, cnt))
		}
	case kindStream:
		ser := t.time(slot, svc, "collection.serialize", func() {
			_, e := c.SerializeContext(ctx, op.doc, op.query, &countWriter{})
			fail(e)
		})
		var q *xpath.Query
		t.time(slot, ser, "collection.compiled", func() { var e error; q, e = c.Compiled(op.doc, op.query); fail(e) })
		eng, ok := c.Get(op.doc)
		if q == nil || !ok {
			return err
		}
		xs := t.time(slot, ser, "xpath.serialize", func() { _, e := q.SerializeCtx(ctx, &countWriter{}); fail(e) })
		var nodes []int
		ev := t.time(slot, xs, "xpath.eval", func() { var e error; nodes, e = q.NodesCtx(ctx); fail(e) })
		cnt.topDown(q, t.spans[ev-1].Dur, int64(len(nodes)))
		t.time(slot, xs, "xmltree.get_subtree", func() {
			w := &countWriter{}
			for _, x := range nodes {
				fail(eng.Doc.GetSubtree(x, w))
			}
		})
		if first {
			fail(t.cold(ctx, s, slot, op.doc, op.query, op.kind, cnt))
		}
	case kindBatch, kindCountAll:
		var reqs []collection.Request
		if op.kind == kindBatch {
			for _, it := range op.batch {
				reqs = append(reqs, collection.Request{Doc: it.doc, Query: it.query, Mode: collection.ModeNodes})
			}
		} else {
			for _, name := range c.Names() {
				reqs = append(reqs, collection.Request{Doc: name, Query: op.query, Mode: collection.ModeCount})
			}
		}
		t.time(slot, svc, "collection.query", func() {
			for _, r := range c.Query(ctx, reqs) {
				fail(r.Err)
			}
		})
		if op.kind == kindBatch {
			// The same requests one after another: a root of its own, because
			// the pool ran them side by side inside collection.query.
			start := time.Now()
			serial := t.add(slot, 0, "collection.batch_serial", start, 0)
			for _, r := range reqs {
				t.time(slot, serial, "collection.do", func() { fail(c.DoContext(ctx, r).Err) })
			}
			t.spans[serial-1].Dur = int64(time.Since(start))
		}
	case kindSearch:
		fail(t.search(ctx, s, slot, svc, op, cnt))
	}
	return err
}

// cold traces what a query costs when the compiled-query cache does not
// hold it: the compile, and the first evaluation, which builds the match
// set of every text literal through the FM-index.
func (t *tracer) cold(ctx context.Context, s *served, slot int, doc, query string, kind opKind, cnt *counters) error {
	eng, ok := s.coll.Get(doc)
	if !ok {
		return fmt.Errorf("trace: no document %q", doc)
	}
	start := time.Now()
	root := t.add(slot, 0, "xpath.cold", start, 0)
	var q *xpath.Query
	var err error
	t.time(slot, root, "xpath.compile", func() { q, err = eng.Compile(query) })
	if err != nil {
		return err
	}
	ev := t.time(slot, root, "xpath.first_eval", func() {
		switch kind {
		case kindExists:
			_, err = q.Exists(ctx)
		case kindStream:
			_, err = q.NodesCtx(ctx)
		default:
			_, err = q.CountCtx(ctx)
		}
	})
	t.spans[root-1].Dur = int64(time.Since(start))
	cnt.xpathOps++
	if q.UsesBottomUp() {
		cnt.bottomUp++
	}
	cnt.firstEvalNs += t.spans[ev-1].Dur
	if fm := eng.Doc.FM; fm != nil {
		for _, lit := range literals(query) {
			p := []byte(lit.Literal)
			before := len(t.spans)
			switch lit.Op {
			case xpath.OpContains:
				var g int
				t.time(slot, ev, "fmindex.global_count", func() { g = fm.GlobalCount(p) })
				if g > 0 && g <= plainCutoff {
					t.time(slot, ev, "fmindex.contains", func() { fm.Contains(p) })
				}
			case xpath.OpStartsWith:
				t.time(slot, ev, "fmindex.starts_with", func() { fm.StartsWith(p) })
			case xpath.OpEndsWith:
				var g int
				t.time(slot, ev, "fmindex.ends_with_count", func() { g = fm.EndsWithCount(p) })
				if g <= plainCutoff {
					t.time(slot, ev, "fmindex.ends_with", func() { fm.EndsWith(p) })
				}
			}
			for _, sp := range t.spans[before:] {
				cnt.fmNs += sp.Dur
			}
		}
	}
	return err
}

// literals returns the text predicates of a query, in order.
func literals(query string) []*xpath.TextExpr {
	path, err := xpath.ParseQuery(query)
	if err != nil {
		return nil
	}
	var out []*xpath.TextExpr
	var walkPath func(*xpath.Path)
	var walkExpr func(xpath.Expr)
	walkExpr = func(e xpath.Expr) {
		switch x := e.(type) {
		case *xpath.AndExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *xpath.OrExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *xpath.NotExpr:
			walkExpr(x.E)
		case *xpath.PathExpr:
			walkPath(x.Path)
		case *xpath.TextExpr:
			out = append(out, x)
			if x.Target != nil {
				walkPath(x.Target)
			}
		}
	}
	walkPath = func(p *xpath.Path) {
		for _, st := range p.Steps {
			for _, f := range st.Filters {
				walkExpr(f)
			}
		}
	}
	walkPath(path)
	return out
}

// search traces one ranked search: the collection call, then its stages
// called directly on a snapshot of the posting index.
func (t *tracer) search(ctx context.Context, s *served, slot, svc int, op *opSpec, cnt *counters) error {
	c := s.coll
	q := renderTerms(op.terms)
	var err error
	cs := t.time(slot, svc, "collection.search", func() { _, err = c.Search(ctx, q, op.query, 0) })
	if err != nil {
		return err
	}
	var terms []search.Term
	t.time(slot, cs, "search.parse_query", func() { terms, err = search.ParseQuery(q) })
	if err != nil {
		return err
	}
	var snap search.Snapshot
	var cands []string
	t.time(slot, cs, "search.candidates", func() {
		snap = c.SearchIndex().Snapshot()
		cands, err = search.Candidates(ctx, snap, terms)
	})
	if err != nil {
		return err
	}
	var phraseTF map[string][]int64
	if phrases := search.Phrases(terms); len(phrases) > 0 {
		phraseTF = map[string][]int64{}
		for _, name := range cands {
			counts := make([]int64, len(phrases))
			if d := snap.Docs[name].Doc(); d != nil && d.FM != nil {
				for i, p := range phrases {
					t.time(slot, cs, "fmindex.global_count", func() { counts[i] = int64(d.FM.GlobalCount([]byte(p.Text))) })
				}
			}
			phraseTF[name] = counts
		}
	}
	var scored []search.DocScore
	t.time(slot, cs, "search.rank", func() { scored, err = search.Rank(ctx, snap, terms, cands, phraseTF) })
	if err != nil {
		return err
	}
	if op.query != "" {
		reqs := make([]collection.Request, len(scored))
		for i, ds := range scored {
			reqs[i] = collection.Request{Doc: ds.Doc, Query: op.query, Mode: collection.ModeCount}
		}
		kept := scored[:0]
		t.time(slot, cs, "collection.query", func() {
			for i, r := range c.Query(ctx, reqs) {
				if r.Err == nil && r.Count > 0 {
					kept = append(kept, scored[i])
				}
			}
		})
		scored = kept
	}
	if len(scored) > collection.DefaultTopK {
		scored = scored[:collection.DefaultTopK]
	}
	for _, ds := range scored {
		t.time(slot, cs, "search.snippet", func() { _, err = search.Snippet(ctx, ds.Postings, terms, search.SnippetWidth) })
		if err != nil {
			return err
		}
		cnt.hits++
	}
	return nil
}

// traceOps is how many operations of the sequence the replay traces, and
// openOps how many the open-loop phase sends.
const (
	traceOps = 400
	openOps  = 600
)

// traced is the part of a run only -trace 1 does: the open-loop phase, an
// untraced single-client pass over the operations about to be traced, the
// traced replay, and the layer kernels. It fills in the per-layer metrics
// and writes trace-<workload>.json.
func traced(ctx context.Context, cfg config, w workload, s *served, distinct []*opSpec, seq []int, res *result, hitRatio float64) error {
	m := res.Metrics
	us := func(ns float64) float64 { return ns / 1e3 }
	scaledOps := func(n int) int { return max(len(seq), int(float64(n)*min(1, cfg.scale))) }

	// Open loop at the workload's fixed rate (a scaled-down corpus answers
	// faster, so a scaled-down run sends faster).
	open := openLoop(s, distinct, seq, scaledOps(openOps), w.openRate/min(1, cfg.scale))
	reportFailures(cfg.log, distinct, open.samples)
	res.Attempted += len(open.samples)
	res.Failed += open.failed()
	var lat, late []float64
	for i := range open.samples {
		lat = append(lat, float64(open.samples[i].lat)/1e6)
		late = append(late, float64(open.samples[i].late)/1e6)
	}
	m["service.open_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["service.open_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["service.open_late_ms"] = metric{quantile(late, 0.99), "ms"}

	// The same operations the replay will trace, untraced, one client; like
	// the replay, it times a request that found its compiled query cached.
	n := scaledOps(traceOps)
	cl := newClient(s)
	var plain []float64
	for slot := 0; slot < n; slot++ {
		op := distinct[seq[slot%len(seq)]]
		misses := s.coll.Stats().CacheMisses
		_, d, err := cl.timed(op)
		if err == nil && s.coll.Stats().CacheMisses != misses {
			_, d, err = cl.timed(op)
		}
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		plain = append(plain, float64(d))
	}

	tr := &tracer{t0: time.Now()}
	var cnt counters
	seen := make([]bool, len(distinct))
	for slot := 0; slot < n; slot++ {
		i := seq[slot%len(seq)]
		if err := tr.replay(ctx, s, cl, slot, distinct[i], !seen[i], &cnt); err != nil {
			return fmt.Errorf("traced replay of %s %s: %w", distinct[i].class, distinct[i].target, err)
		}
		seen[i] = true
	}
	tr.finish()
	res.Correct = res.Failed == 0

	m["service.self_us"] = metric{us(median(tr.selfs(byName("service.request")))), "us"}
	var penalty []float64
	for i := range tr.spans {
		if tr.spans[i].Name == "service.request_miss" {
			// The request sent again is the span recorded next.
			penalty = append(penalty, float64(tr.spans[i].Dur-tr.spans[i+1].Dur))
		}
	}
	m["service.miss_penalty_us"] = metric{us(median(penalty)), "us"}
	m["collection.do_self_us"] = metric{us(median(tr.selfs(childOf("service.request", "collection.do")))), "us"}
	m["collection.search_self_us"] = metric{us(median(tr.selfs(byName("collection.search")))), "us"}
	m["collection.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	var speedup []float64
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.Name == "collection.batch_serial" {
			// The batch's collection.query span is the one recorded just before.
			speedup = append(speedup, float64(sp.Dur)/float64(tr.spans[i-1].Dur))
		}
	}
	m["collection.batch_speedup"] = metric{median(speedup), "ratio"}
	m["xpath.compile_us"] = metric{us(median(tr.durs(byName("xpath.compile")))), "us"}
	m["xpath.eval_us_p50"] = metric{us(median(tr.durs(byName("xpath.eval")))), "us"}
	m["xpath.first_eval_us_p50"] = metric{us(median(tr.durs(byName("xpath.first_eval")))), "us"}
	m["xpath.exists_us"] = metric{us(median(tr.durs(byName("xpath.exists")))), "us"}
	m["xpath.bottomup_share"] = metric{ratio(float64(cnt.bottomUp), float64(cnt.xpathOps)), "ratio"}
	m["xpath.first_eval_fm_share"] = metric{ratio(float64(cnt.fmNs), float64(cnt.firstEvalNs)), "ratio"}
	m["automata.visited_per_result"] = metric{ratio(float64(cnt.visited), float64(cnt.results)), "count"}
	m["automata.marked_per_result"] = metric{ratio(float64(cnt.marked), float64(cnt.results)), "count"}
	m["automata.ns_per_visited"] = metric{ratio(float64(cnt.topDownNs), float64(cnt.visited)), "ns"}
	m["search.parse_query_ns"] = metric{median(tr.durs(byName("search.parse_query"))), "ns"}
	m["search.candidates_us"] = metric{us(median(tr.durs(byName("search.candidates")))), "us"}
	m["search.rank_us"] = metric{us(median(tr.durs(byName("search.rank")))), "us"}
	m["search.snippet_us_per_hit"] = metric{us(median(tr.durs(byName("search.snippet")))), "us"}
	m["search.phrase_count_us"] = metric{us(median(tr.durs(childOf("collection.search", "fmindex.global_count")))), "us"}
	m["trace.overhead_ratio"] = metric{ratio(median(tr.durs(byName("service.request"))), median(plain)), "ratio"}
	res.info["traced_ops"] = n
	res.info["trace_spans"] = len(tr.spans)
	res.info["search_hits_snippeted"] = cnt.hits

	if err := layerKernels(ctx, cfg, s, distinct, m); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "trace-"+w.name+".json")
	res.info["trace_file"] = path
	return tr.write(path, map[string]any{"workload": w.name, "seed": cfg.seed, "scale": cfg.scale, "traced_ops": n})
}

// ratio is a/b, and 0 when the layer did no such work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
