// Benchmarks for the paper's Section 6 experiments, one Benchmark<Fig|Table>
// per figure or table, plus the layer benchmarks CI pins. This file is the
// only definition of the experiments: a sub-benchmark is a column of the
// paper's table and a b.ReportMetric is a count the table prints beside its
// timings (README maps each table to its -bench regex). Every experiment
// cross-checks its evaluators once before timing them — engine against DOM
// and streaming counts, ablation configs against each other, FM-index
// against a naive scan, PSSM backtracking against a scan — and fails on a
// mismatch, so `go test -run '^$' -bench . -benchtime 1x .` is also an
// end-to-end consistency run. Corpora (benchSize each) are built once per
// process and shared.
package sxsi

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/bp"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pssm"
	"repro/internal/search"
	"repro/internal/stream"
	"repro/internal/tags"
	"repro/internal/wordindex"
	"repro/internal/xmlparse"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const benchSize = 2 << 20 // per-corpus size for go test -bench

// corpus is one generated document and its index.
type corpus struct {
	name string
	data []byte
	eng  *core.Engine
}

// parseDOM parses the pointer-DOM baseline of c. It is not kept with the
// corpus: testing collects garbage before every sub-benchmark, and DOM
// pointers kept alive for the whole run would make each collection cost
// tens of milliseconds.
func (c *corpus) parseDOM(b *testing.B) *dom.Tree {
	b.Helper()
	tree, err := dom.Parse(c.data)
	if err != nil {
		b.Fatal(c.name, err)
	}
	return tree
}

var corpora struct {
	once                             sync.Once
	xmark, medline, tbank, bio, wiki corpus
}

func setup(b *testing.B) {
	b.Helper()
	corpora.once.Do(func() {
		load := func(c *corpus, name string, data []byte, cfg core.Config) {
			c.name, c.data = name, data
			var err error
			if c.eng, err = core.BuildContext(context.Background(), data, cfg); err != nil {
				panic(err)
			}
		}
		load(&corpora.xmark, "xmark", gen.XMark(1, benchSize), core.Config{})
		load(&corpora.medline, "medline", gen.Medline(101, benchSize), core.Config{})
		load(&corpora.tbank, "treebank", gen.Treebank(4, benchSize), core.Config{})
		load(&corpora.bio, "bioxml", gen.BioXML(77, benchSize), core.Config{SampleRate: 16})
		load(&corpora.wiki, "wiki", gen.Wiki(202, benchSize), core.Config{})
	})
}

// sub runs f as the timed body of sub-benchmark name and reports metrics
// (unit → value) on its result line.
func sub(b *testing.B, name string, metrics map[string]float64, f func() error) {
	b.Run(name, func(b *testing.B) {
		for b.Loop() {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		for unit, v := range metrics {
			b.ReportMetric(v, unit)
		}
	})
}

// counting is sub's body for counting a compiled query.
func counting(q *xpath.Query) func() error {
	return func() error { _, err := q.CountCtx(context.Background()); return err }
}

// countOf and nodesOf evaluate q with no deadline, for the cross-checks.
func countOf(q *xpath.Query) int64 {
	n, _ := q.CountCtx(context.Background())
	return n
}

func nodesOf(q *xpath.Query) []int {
	nodes, _ := q.NodesCtx(context.Background())
	return nodes
}

func results(n int64) map[string]float64 { return map[string]float64{"results": float64(n)} }

func oneIf(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// planMetrics is a query's result count plus its plan in Figure 14's
// notation as 0/1 metrics: bottom-up (else top-down) and fm (else naive).
func planMetrics(q *xpath.Query, n int64) map[string]float64 {
	m := results(n)
	m["bottom-up"] = oneIf(q.UsesBottomUp())
	m["fm"] = oneIf(strings.HasSuffix(q.Strategy(), ",fm"))
	return m
}

// checkedQuery compiles src on eng and fails unless the engine's count, its
// materialized result and the DOM baseline tree agree. It returns the query,
// the result count and the DOM's result nodes.
func checkedQuery(b *testing.B, eng *core.Engine, tree *dom.Tree, id, src string) (*xpath.Query, int64, []*dom.Node) {
	b.Helper()
	q, err := eng.Compile(src)
	if err != nil {
		b.Fatal(id, err)
	}
	dn, err := tree.Eval(src)
	if err != nil {
		b.Fatal(id, err)
	}
	if n, mat := countOf(q), len(nodesOf(q)); n != int64(len(dn)) || mat != len(dn) {
		b.Fatalf("%s: engine count %d, materialized %d, DOM %d", id, n, mat, len(dn))
	}
	return q, int64(len(dn)), dn
}

// BenchmarkBuild is Figure 8's construction column: full index construction
// (parse, suffix sort, wavelet trees) of the XMark corpus. Its metrics are
// the figure's size columns: index bytes (tree + FM), their ratio to the
// document, and the node count. BenchmarkLoad is the loading column; loading
// skips the suffix sort and is expected to be at least an order of
// magnitude faster.
func BenchmarkBuild(b *testing.B) {
	setup(b)
	st := corpora.xmark.eng.Stats()
	idx := float64(st.TreeBytes + st.TextBytes)
	b.SetBytes(int64(len(corpora.xmark.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildContext(context.Background(), corpora.xmark.data, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(idx, "index-bytes")
	b.ReportMetric(idx/float64(len(corpora.xmark.data)), "index-bytes/src-byte")
	b.ReportMetric(float64(st.Nodes), "nodes")
}

// BenchmarkBuildParallel measures the staged parallel build (internal/build)
// on the XMark corpus at one worker and, where there is more than one
// processor, at NumCPU workers. The two sub-benchmarks share a corpus and
// differ only in -p, so their ratio is the end-to-end parallel speedup:
// p workers sort p chunks concurrently and overlap structure assembly with
// the text side, but the merge then loads a key per row to interleave the
// chunks, which a single chunk never does, so on few CPUs the ratio can sit
// near 1.
func BenchmarkBuildParallel(b *testing.B) {
	setup(b)
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	for _, p := range procs {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			cfg := core.Config{BuildProcs: p}
			b.SetBytes(int64(len(corpora.xmark.data)))
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildContext(context.Background(), corpora.xmark.data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoad is Figure 8's loading column: deserializing a saved index of
// the XMark corpus — one copy into an aligned heap buffer, then the decoder
// the mapped open runs.
func BenchmarkLoad(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	if _, err := corpora.xmark.eng.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(corpora.xmark.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Load(bytes.NewReader(buf.Bytes()), core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenMapped measures the zero-copy open of the same saved index
// from disk: mmap plus derived-directory rebuilds only, no payload copies.
// Compare with BenchmarkLoad — the gap is the copy, and it widens with
// index size (see BenchmarkOpenMappedLarge).
func BenchmarkOpenMapped(b *testing.B) {
	setup(b)
	path := filepath.Join(b.TempDir(), "xmark.sxsi")
	if _, err := corpora.xmark.eng.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(corpora.xmark.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.OpenFile(path, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// Large-index pair: the acceptance experiment behind the mapped path.
// Gated by SXSI_BENCH_MB (e.g. 100) because building a multi-hundred-MB
// corpus takes minutes; both benchmarks share one saved index, so
// benchstat can compare open latencies directly. TestMain removes its
// directory when the run ends.
var largeIdx struct {
	once sync.Once
	dir  string
	path string
	size int64
}

func TestMain(m *testing.M) {
	code := m.Run()
	if largeIdx.dir != "" {
		os.RemoveAll(largeIdx.dir)
	}
	os.Exit(code)
}

func largeIndexPath(b *testing.B) string {
	mb, _ := strconv.Atoi(os.Getenv("SXSI_BENCH_MB"))
	if mb <= 0 {
		b.Skip("set SXSI_BENCH_MB to run the large-index open benchmarks")
	}
	largeIdx.once.Do(func() {
		dir, err := os.MkdirTemp("", "sxsi-bench-large")
		if err != nil {
			b.Fatal(err)
		}
		largeIdx.dir = dir
		eng, err := core.BuildContext(context.Background(), gen.XMark(11, mb<<20), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		largeIdx.path = filepath.Join(dir, "large.sxsi")
		if largeIdx.size, err = eng.SaveFile(largeIdx.path); err != nil {
			b.Fatal(err)
		}
	})
	return largeIdx.path
}

func BenchmarkOpenMappedLarge(b *testing.B) {
	path := largeIndexPath(b)
	b.SetBytes(largeIdx.size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.OpenFile(path, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

func BenchmarkLoadLarge(b *testing.B) {
	path := largeIndexPath(b)
	b.SetBytes(largeIdx.size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OpenFile(path, core.Config{NoMmap: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_FMSearch is Table II (l64: sampling step 64, the default)
// and Table III (l4) over the Medline corpus. Per pattern: the FM-index
// global count (metric: occurrences), contains (metric: texts) and locate
// (the report column), and scan/<pattern>, the plain-store scan that
// answers a frequent contains literal (the rare-byte pass of
// xmltree.TextStore.Contains, with the prefilter byte the engine picks;
// metric: the store's bytes, so ns/op over bytes is the cost model's
// c_scan). FM contains must find the same texts as the scan, and the scan
// the same number as a per-text bytes.Contains pass. A newline pattern is
// named \n.
func BenchmarkTable2_FMSearch(b *testing.B) {
	setup(b)
	l4, err := core.BuildContext(context.Background(), corpora.medline.data, core.Config{SampleRate: 4})
	if err != nil {
		b.Fatal(err)
	}
	doc := corpora.medline.eng.Doc
	scan := func(p []byte) xmltree.TextSet {
		set := xmltree.NewTextSet(doc.NumTexts())
		doc.Plain.Contains(p, doc.RareByte(p), set)
		return set
	}
	for _, p := range bench.Table2Patterns {
		name, pb := strings.Trim(strconv.Quote(p), `"`), []byte(p)
		set, naive, storeBytes := scan(pb), 0, 0
		for id := 0; id < doc.NumTexts(); id++ {
			text := doc.Plain.Get(id)
			storeBytes += len(text)
			if bytes.Contains(text, pb) {
				naive++
			}
		}
		want := set.Len()
		if want != naive {
			b.Fatalf("%q: the scan finds %d texts, a per-text pass %d", p, want, naive)
		}
		texts := map[string]float64{"texts": float64(want)}
		for _, s := range []struct {
			name string
			eng  *core.Engine
		}{{"l64", corpora.medline.eng}, {"l4", l4}} {
			fm := s.eng.Doc.FM
			ids := fm.Contains(pb)
			same := len(ids) == want
			for _, id := range ids {
				same = same && set.Has(id)
			}
			if !same {
				b.Fatalf("%s %q: FM contains %d texts, the scan %d", s.name, p, len(ids), want)
			}
			occ := map[string]float64{"occurrences": float64(fm.GlobalCount(pb))}
			sub(b, s.name+"/"+name+"/global", occ, func() error { fm.GlobalCount(pb); return nil })
			sub(b, s.name+"/"+name+"/contains", texts, func() error { fm.Contains(pb); return nil })
			sub(b, s.name+"/"+name+"/locate", occ, func() error { fm.Locate(pb); return nil })
		}
		sub(b, "scan/"+name, map[string]float64{"texts": float64(want), "bytes": float64(storeBytes)}, func() error { scan(pb); return nil })
	}
}

// treeCorpora are the documents of Tables IV and V.
func treeCorpora() []*corpus { return []*corpus{&corpora.xmark, &corpora.tbank, &corpora.medline} }

type nopHandler struct{}

func (nopHandler) StartElement(string, []xmlparse.Attr) error { return nil }
func (nopHandler) EndElement(string) error                    { return nil }
func (nopHandler) Text([]byte) error                          { return nil }

// BenchmarkTable4_Construction is Table IV, per corpus: the SAX parse alone,
// the pointer DOM, the succinct tree store (an index without the FM-index),
// and the succinct components rebuilt from the stored tree's own data —
// parentheses and tag sequence.
func BenchmarkTable4_Construction(b *testing.B) {
	setup(b)
	for _, c := range treeCorpora() {
		doc := c.eng.Doc
		parens, ids := make([]bool, doc.Par.Len()), make([]int32, doc.Tag.Len())
		for i := range parens {
			parens[i], ids[i] = doc.Par.IsOpen(i), doc.Tag.Access(i)
		}
		sub(b, c.name+"/parse", nil, func() error { return xmlparse.Parse(c.data, nopHandler{}) })
		sub(b, c.name+"/pointer", nil, func() error { _, err := dom.Parse(c.data); return err })
		sub(b, c.name+"/succinct", nil, func() error {
			_, err := core.BuildContext(context.Background(), c.data, core.Config{SkipFM: true})
			return err
		})
		sub(b, c.name+"/parentheses", nil, func() error { bp.NewFromBools(parens); return nil })
		sub(b, c.name+"/tags", nil, func() error { tags.Build(ids, 2*doc.NumTags()); return nil })
	}
}

func pointerWalk(x *dom.Node) int {
	n := 1
	for c := x.FirstChild; c != nil; c = c.NextSibling {
		n += pointerWalk(c)
	}
	return n
}

// succinctWalk counts the nodes a FirstChild/NextSibling recursion from x
// visits; with elemsOnly it counts only elements (Table V's element
// recursion), not text, attribute or root nodes.
func succinctWalk(doc *xmltree.Doc, x int, elemsOnly bool) int {
	n := 1
	if elemsOnly {
		switch doc.TagOf(x) {
		case doc.TextTag(), doc.AttrsTag(), doc.AttrValTag(), doc.RootTag():
			n = 0
		}
	}
	for c := doc.FirstChild(x); c != xmltree.Nil; c = doc.NextSibling(c) {
		n += succinctWalk(doc, c, elemsOnly)
	}
	return n
}

// BenchmarkTable5_Traversal is Table V, per corpus: a full recursive
// traversal of the pointer DOM and of the succinct tree (metric: nodes), the
// element-only recursion and //* in counting mode (metric: elements). The two
// traversals must visit as many nodes, and //* must count every element.
func BenchmarkTable5_Traversal(b *testing.B) {
	setup(b)
	for _, c := range treeCorpora() {
		doc, tree := c.eng.Doc, c.parseDOM(b)
		nodes, elems := succinctWalk(doc, doc.Root(), false), succinctWalk(doc, doc.Root(), true)
		if p := pointerWalk(tree.Root); p != nodes {
			b.Fatalf("%s: pointer walk %d nodes, succinct walk %d", c.name, p, nodes)
		}
		star, err := c.eng.Compile("//*")
		if err != nil {
			b.Fatal(err)
		}
		if n := countOf(star); n != int64(elems) {
			b.Fatalf("%s: //* counts %d, element recursion %d", c.name, n, elems)
		}
		nm, em := map[string]float64{"nodes": float64(nodes)}, map[string]float64{"elements": float64(elems)}
		sub(b, c.name+"/pointer", nm, func() error { pointerWalk(tree.Root); return nil })
		sub(b, c.name+"/succinct", nm, func() error { succinctWalk(doc, doc.Root(), false); return nil })
		sub(b, c.name+"/elem-rec", em, func() error { succinctWalk(doc, doc.Root(), true); return nil })
		sub(b, c.name+"/star-count", em, counting(star))
	}
}

// BenchmarkTable6_TaggedTraversal is Table VI over XMark, per tag: a raw
// preorder loop over the tag's occurrences (the Go analogue of the paper's
// C++ jump loop), //tag in counting mode and //tag materialized (metric:
// nodes). All three must find the same number of nodes.
func BenchmarkTable6_TaggedTraversal(b *testing.B) {
	setup(b)
	eng := corpora.xmark.eng
	for _, tag := range []string{"incategory", "price", "listitem", "keyword"} {
		open := 2 * eng.Doc.TagID(tag)
		jump := func() (n int) {
			for p := eng.Doc.Tag.NextOccurrence(open, 0); p != -1; p = eng.Doc.Tag.NextOccurrence(open, p+1) {
				n++
			}
			return n
		}
		q, err := eng.Compile("//" + tag)
		if err != nil {
			b.Fatal(err)
		}
		n := jump()
		if c, mat := countOf(q), len(nodesOf(q)); n == 0 || c != int64(n) || mat != n {
			b.Fatalf("%s: jump %d, count %d, materialized %d", tag, n, c, mat)
		}
		m := map[string]float64{"nodes": float64(n)}
		sub(b, tag+"/jump", m, func() error { jump(); return nil })
		sub(b, tag+"/count", m, counting(q))
		sub(b, tag+"/mat", m, func() error { _, err := q.NodesCtx(context.Background()); return err })
	}
}

// BenchmarkFig10_XMark is Figure 10 (X01-X17) with Figure 13's counters. Per
// query: counting (count, whose metrics are the result count and the nodes
// the materializing run visits and marks, Figure 13), materialization (mat),
// materialization plus serialization (serialize), the pointer DOM's
// evaluation and serialization (dom, dom-serialize), and, for the linear
// paths it accepts, the one-pass streaming baseline (stream). Engine, DOM
// and streaming counts must agree.
func BenchmarkFig10_XMark(b *testing.B) {
	setup(b)
	c := &corpora.xmark
	tree := c.parseDOM(b)
	for _, q := range bench.XMarkQueries {
		cq, n, dn := checkedQuery(b, c.eng, tree, q.ID, q.Query)
		st := cq.Stats() // of checkedQuery's Nodes call
		m := results(n)
		m["visited/op"], m["marked/op"] = float64(st.Visited), float64(st.Marked)
		sub(b, q.ID+"/count", m, counting(cq))
		sub(b, q.ID+"/mat", nil, func() error { _, err := cq.NodesCtx(context.Background()); return err })
		sub(b, q.ID+"/serialize", nil, func() error { _, err := cq.SerializeCtx(context.Background(), io.Discard); return err })
		sub(b, q.ID+"/dom", nil, func() error { _, err := tree.Eval(q.Query); return err })
		var buf bytes.Buffer
		sub(b, q.ID+"/dom-serialize", nil, func() error {
			buf.Reset()
			for _, x := range dn {
				x.Serialize(&buf)
			}
			return nil
		})
		sq, err := stream.Compile(q.Query)
		if err != nil {
			continue // not a linear path
		}
		if sn, err := sq.Count(c.data); err != nil || sn != n {
			b.Fatalf("%s: stream count %d (%v), engine %d", q.ID, sn, err, n)
		}
		sub(b, q.ID+"/stream", nil, func() error { _, err := sq.Count(c.data); return err })
	}
}

// BenchmarkFig11_Treebank is Figure 11 (T01-T05): counting, materialization,
// materialization plus serialization, and the pointer DOM, which must agree
// with the engine.
func BenchmarkFig11_Treebank(b *testing.B) {
	setup(b)
	c := &corpora.tbank
	tree := c.parseDOM(b)
	for _, q := range bench.TreebankQueries {
		cq, n, _ := checkedQuery(b, c.eng, tree, q.ID, q.Query)
		sub(b, q.ID+"/count", results(n), counting(cq))
		sub(b, q.ID+"/mat", nil, func() error { _, err := cq.NodesCtx(context.Background()); return err })
		sub(b, q.ID+"/serialize", nil, func() error { _, err := cq.SerializeCtx(context.Background(), io.Discard); return err })
		sub(b, q.ID+"/dom", nil, func() error { _, err := tree.Eval(q.Query); return err })
	}
}

// ablation are Figure 12's evaluator configurations.
var ablation = []struct {
	name string
	opts automata.Options
}{
	{"naive", automata.Options{NoJump: true, NoMemo: true, NoEarly: true, NoLazy: true}},
	{"jump-only", automata.Options{NoMemo: true, NoEarly: true}},
	{"memo-only", automata.Options{NoJump: true, NoLazy: true}},
	{"all-opts", automata.Options{}},
}

// BenchmarkFig12_Ablation is Figure 12: X01-X17 counted under naive
// execution, jumping only, memoization only and all optimizations. All four
// configurations must count the same results.
func BenchmarkFig12_Ablation(b *testing.B) {
	setup(b)
	engs := make([]*core.Engine, len(ablation))
	for i, cfg := range ablation {
		engs[i] = corpora.xmark.eng.WithQueryOptions(xpath.Options{Eval: cfg.opts})
	}
	for _, q := range bench.XMarkQueries {
		want := int64(-1)
		for i, cfg := range ablation {
			cq, err := engs[i].Compile(q.Query)
			if err != nil {
				b.Fatal(q.ID, err)
			}
			n := countOf(cq)
			if want >= 0 && n != want {
				b.Fatalf("%s: %s counts %d, %s %d", q.ID, cfg.name, n, ablation[0].name, want)
			}
			want = n
			sub(b, q.ID+"/"+cfg.name, results(n), counting(cq))
		}
	}
}

// BenchmarkFig15_MedlineText is Figures 14/15 (M01-M11). count uses a
// compiled query whose match sets are built; first compiles and counts per
// iteration, paying the match-set construction (locate or plain scan) a
// query-cache miss pays; serialize and dom as in Figure 10. The count
// metrics give the plan chosen (bottom-up, fm) next to Figure 14's
// (paper-bottom-up, paper-fm). The DOM must agree with the engine.
func BenchmarkFig15_MedlineText(b *testing.B) {
	setup(b)
	c := &corpora.medline
	tree := c.parseDOM(b)
	for _, q := range bench.MedlineQueries {
		cq, n, _ := checkedQuery(b, c.eng, tree, q.ID, q.Query)
		m := planMetrics(cq, n)
		m["paper-bottom-up"] = oneIf(strings.HasPrefix(q.PaperStrategy, "up"))
		m["paper-fm"] = oneIf(strings.HasSuffix(q.PaperStrategy, ",fm"))
		sub(b, q.ID+"/count", m, counting(cq))
		sub(b, q.ID+"/first", nil, func() error { _, err := c.eng.Count(context.Background(), q.Query); return err })
		sub(b, q.ID+"/serialize", nil, func() error { _, err := cq.SerializeCtx(context.Background(), io.Discard); return err })
		sub(b, q.ID+"/dom", nil, func() error { _, err := tree.Eval(q.Query); return err })
	}
}

var phraseLiteral = regexp.MustCompile(`"([^"]*)"`)

// BenchmarkTable7_WordIndex is Table VII: W01-W05 over Medline and W06-W10
// over the wiki corpus, counted with the word index plugged in as the
// wcontains predicate (word), against a tokenize-and-scan of every text for
// the query's first phrase (naive, metric: texts). The word index must find
// the same texts as the scan.
func BenchmarkTable7_WordIndex(b *testing.B) {
	setup(b)
	for _, c := range []*corpus{&corpora.medline, &corpora.wiki} {
		texts := c.eng.Doc.Plain.All()
		widx, err := wordindex.New(texts)
		if err != nil {
			b.Fatal(err)
		}
		eng := c.eng.WithQueryOptions(xpath.Options{
			CustomMatchSets: map[string]func(string) []int32{"wcontains": widx.ContainsPhrase},
		})
		for _, q := range bench.WordQueries {
			if q.Medline != (c == &corpora.medline) {
				continue
			}
			phrase := phraseLiteral.FindStringSubmatch(q.Query)[1]
			want := oracle.PhraseTexts(texts, phrase)
			if got := widx.ContainsPhrase(phrase); !slices.Equal(got, want) {
				b.Fatalf("%s %q: word index %d texts, scan %d", q.ID, phrase, len(got), len(want))
			}
			cq, err := eng.Compile(q.Query)
			if err != nil {
				b.Fatal(q.ID, err)
			}
			sub(b, q.ID+"/word", results(countOf(cq)), counting(cq))
			sub(b, q.ID+"/naive", map[string]float64{"texts": float64(len(want))}, func() error {
				oracle.PhraseTexts(texts, phrase)
				return nil
			})
		}
	}
}

// BenchmarkFig18_PSSM is Figure 18 over the BioXML corpus, indexed with the
// default wavelet-tree FM-index at sampling step 16 (the paper swaps in a
// run-length index here; ours measures larger and slower on this corpus).
// <matrix>/fm-backtrack is the text search alone (branch-and-bound
// backtracking over the FM-index; metric: occurrences) and <matrix>/scan the
// brute-force scan, which must report the same occurrences. P1-P9 are the
// total time of a query compiled and counted with the pssm predicate backed
// by the backtracking search, with its result count and plan.
func BenchmarkFig18_PSSM(b *testing.B) {
	setup(b)
	fm, texts := corpora.bio.eng.Doc.FM, corpora.bio.eng.Doc.Plain.All()
	matrices := map[string]pssm.Matrix{"M1": pssm.M1(), "M2": pssm.M2(), "M3": pssm.M3()}
	for _, name := range []string{"M1", "M2", "M3"} {
		m := matrices[name]
		thr := m.MaxScore() * bench.PSSMThresholds[name]
		occs := pssm.Search(fm, &m, thr)
		if scan := pssm.ScanTexts(texts, &m, thr); !slices.Equal(occs, scan) {
			b.Fatalf("%s: backtracking %d occurrences, scan %d", name, len(occs), len(scan))
		}
		occ := map[string]float64{"occurrences": float64(len(occs))}
		sub(b, name+"/fm-backtrack", occ, func() error { pssm.Search(fm, &m, thr); return nil })
		sub(b, name+"/scan", occ, func() error { pssm.ScanTexts(texts, &m, thr); return nil })
	}
	eng := corpora.bio.eng.WithQueryOptions(xpath.Options{CustomMatchSets: map[string]func(string) []int32{
		"pssm": func(lit string) []int32 {
			m := matrices[lit]
			return pssm.DistinctTexts(pssm.Search(fm, &m, m.MaxScore()*bench.PSSMThresholds[lit]))
		},
	}})
	for _, q := range bench.PSSMQueries {
		cq, err := eng.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		sub(b, q.ID, planMetrics(cq, countOf(cq)), func() error { _, err := eng.Count(context.Background(), q.Query); return err })
	}
}

// BenchmarkStreaming is the introduction's indexed-versus-streaming
// comparison over XMark: bench.StreamQueries counted on the index (sxsi)
// and by one streaming pass over the raw document (stream), whose counts
// must agree. The speedup is stream ns/op over sxsi ns/op.
func BenchmarkStreaming(b *testing.B) {
	setup(b)
	c := &corpora.xmark
	for _, q := range bench.StreamQueries {
		cq, err := c.eng.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		sq, err := stream.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		n := countOf(cq)
		if sn, err := sq.Count(c.data); err != nil || sn != n {
			b.Fatalf("%s: stream count %d (%v), engine %d", q.ID, sn, err, n)
		}
		sub(b, q.ID+"/sxsi", results(n), counting(cq))
		sub(b, q.ID+"/stream", results(n), func() error { _, err := sq.Count(c.data); return err })
	}
}

// BenchmarkAncestor measures an upward main-path step: the automaton
// materializes //keyword and the navigational post-step climbs to the
// enclosing listitems via BP Parent/Enclose, deduplicating shared ancestors.
func BenchmarkAncestor(b *testing.B) {
	setup(b)
	b.Run("succinct", func(b *testing.B) {
		q, err := corpora.xmark.eng.Compile("//keyword/ancestor::listitem")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.CountCtx(context.Background())
		}
	})
	b.Run("dom", func(b *testing.B) {
		tree := corpora.xmark.parseDOM(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tree.Eval("//keyword/ancestor::listitem"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreceding measures a leftward order-based step: for each context
// node the engine scans the tag sequence for earlier keyword openings and
// filters out ancestors.
func BenchmarkPreceding(b *testing.B) {
	setup(b)
	b.Run("sibling", func(b *testing.B) {
		q, err := corpora.xmark.eng.Compile("//parlist/preceding-sibling::text")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.CountCtx(context.Background())
		}
	})
	// Existence form: the early-exit scan stops at the first preceding match.
	b.Run("exists", func(b *testing.B) {
		q, err := corpora.xmark.eng.Compile("//parlist[not(preceding::parlist)]")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.CountCtx(context.Background())
		}
	})
}

// BenchmarkBackwardAxes runs one backward-axis query per corpus, so the CI
// benchmark smoke step (-benchtime 1x) exercises the navigational evaluator
// on every document shape.
func BenchmarkBackwardAxes(b *testing.B) {
	setup(b)
	cases := []struct {
		name  string
		eng   *core.Engine
		query string
	}{
		{"xmark", corpora.xmark.eng, "//keyword/parent::*"},
		{"medline", corpora.medline.eng, "//LastName/ancestor::MedlineCitation"},
		{"treebank", corpora.tbank.eng, "//VP/preceding-sibling::NP"},
		{"bioxml", corpora.bio.eng, "//exon/ancestor-or-self::gene"},
	}
	for _, c := range cases {
		q, err := c.eng.Compile(c.query)
		if err != nil {
			b.Fatal(c.name, err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.CountCtx(context.Background())
			}
		})
	}
}

// BenchmarkBwdSearchDeep runs LevelAncestor — a single backward excess
// search — from the bottom of a 1M-node chain: the target excess lies half a
// million positions back, reachable only by skipping blocks through the
// segment tree. The seed implementation walked every block header linearly
// (1754 ns/op); the prevBlock descent runs in ~213 ns/op (8x).
func BenchmarkBwdSearchDeep(b *testing.B) {
	n := 1 << 20
	parens := make([]bool, 2*n)
	for i := 0; i < n; i++ {
		parens[i] = true
	}
	p := bp.NewFromBools(parens)
	x := n - 1 // deepest node
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.LevelAncestor(x, n/2); got != n-1-n/2 {
			b.Fatal("wrong ancestor", got)
		}
	}
}

// BenchmarkFindOpenWide matches the root's closing parenthesis on a document
// with 1M leaf children: no interior block covers the target excess, so the
// seed backward search inspected all ~4100 block headers per call
// (3125 ns/op); the segment-tree walk refutes them all in O(log n)
// (~52 ns/op, 60x).
func BenchmarkFindOpenWide(b *testing.B) {
	n := 1 << 20
	parens := make([]bool, 0, 2*n+2)
	parens = append(parens, true)
	for i := 0; i < n; i++ {
		parens = append(parens, true, false)
	}
	parens = append(parens, false)
	p := bp.NewFromBools(parens)
	last := p.Len() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.FindOpen(last); got != 0 {
			b.Fatal("wrong open", got)
		}
	}
}

// BenchmarkSelectDense measures plain-vector select on a dense 2M-bit
// vector — the Preorder/NodeAtPreorder and FM-locate backbone. Sampled
// position hints replace the full superblock binary search (59 ns/op seed,
// ~27 ns/op sampled, 2.2x).
func BenchmarkSelectDense(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := bitvec.New(1 << 21)
	for i := 0; i < v.Len(); i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
		}
	}
	v.Build()
	ones := v.Ones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(i % ones)
	}
}

// BenchmarkExistsEarly measures the lazy existence probe on the streaming
// iterator: Exists pulls one result from the document-order scan and stops,
// so its cost is the jump to the first verified candidate, independent of
// the thousands of keywords in the full result set (compare with
// BenchmarkCountStream on the same query).
func BenchmarkExistsEarly(b *testing.B) {
	setup(b)
	q, err := corpora.xmark.eng.Compile("//listitem//keyword")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := q.Exists(ctx)
		if err != nil || !ok {
			b.Fatalf("exists = %v, %v", ok, err)
		}
	}
}

// BenchmarkCountStream measures counting mode over the same query: the
// cardinality is resolved from per-state counters (rank directories for
// collector states, Section 5.5.3), never a materialized node slice — the
// reported allocations must stay flat as the corpus grows.
func BenchmarkCountStream(b *testing.B) {
	setup(b)
	q, err := corpora.xmark.eng.Compile("//listitem//keyword")
	if err != nil {
		b.Fatal(err)
	}
	want := countOf(q)
	if want == 0 {
		b.Fatal("empty result set")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := q.CountCtx(ctx)
		if err != nil || n != want {
			b.Fatalf("count = %d, %v", n, err)
		}
	}
}

// BenchmarkTopDownCount is CI's pinned gate on the marking automaton:
// cached counts of X04, X09, X11 (XMark) and T02, T03, T05 (Treebank) on
// the 2 MB corpora, each checked against the DOM first. Every call is a top-down run
// (TopDownRun with jumps, Section 5.4.1) on an evaluator from the query's
// pool. visited/op is the run's Stats().Visited. The JIT tables, the vals
// free list and the jump cursors outlive the run, so allocs/op is only the
// evaluator rebuilt after the collections testing runs between rounds,
// spread over b.N: near 0 at the default -benchtime.
func BenchmarkTopDownCount(b *testing.B) {
	setup(b)
	type query = struct{ ID, Query string }
	for _, set := range []struct {
		c       *corpus
		queries []query
	}{
		{&corpora.xmark, []query{bench.XMarkQueries[3], bench.XMarkQueries[8], bench.XMarkQueries[10]}},
		{&corpora.tbank, []query{bench.TreebankQueries[1], bench.TreebankQueries[2], bench.TreebankQueries[4]}},
	} {
		tree := set.c.parseDOM(b)
		for _, q := range set.queries {
			cq, n, _ := checkedQuery(b, set.c.eng, tree, q.ID, q.Query)
			if cq.Automaton() == nil {
				b.Fatalf("%s: strategy %s, want the automaton", q.ID, cq.Strategy())
			}
			cq.CountCtx(context.Background())
			visited := float64(cq.Stats().Visited)
			b.Run(q.ID, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					cq.CountCtx(context.Background())
				}
				b.ReportMetric(float64(n), "results")
				b.ReportMetric(visited, "visited/op")
			})
		}
	}
}

// searchBench shares a four-document collection (one per corpus) across the
// search benchmarks, plus a query term chosen deterministically as the most
// frequent long-ish token in the XMark text store — the posting tier indexes
// text content, not markup, so the term must come from the texts, and picking
// the heaviest one keeps every document a candidate.
var searchBench struct {
	once  sync.Once
	coll  *collection.Collection
	query string
}

func setupSearch(b *testing.B) {
	setup(b)
	searchBench.once.Do(func() {
		c := collection.New(collection.Config{})
		c.Add("xmark", corpora.xmark.eng)
		c.Add("medline", corpora.medline.eng)
		c.Add("treebank", corpora.tbank.eng)
		c.Add("bioxml", corpora.bio.eng)
		freq := map[string]int{}
		for id := 0; id < corpora.xmark.eng.Doc.NumTexts(); id++ {
			for _, tok := range search.Tokenize(corpora.xmark.eng.Doc.Text(id)) {
				if len(tok) >= 4 {
					freq[tok]++
				}
			}
		}
		for tok, n := range freq {
			if best := freq[searchBench.query]; n > best || (n == best && tok < searchBench.query) || searchBench.query == "" {
				searchBench.query = tok
			}
		}
		searchBench.coll = c
	})
	if searchBench.query == "" {
		b.Fatal("no query term derived from the XMark text store")
	}
}

// BenchmarkSearchTopK measures the full collection-scale ranked search path
// on the shared corpora: snapshot, candidate intersection, BM25 scoring and
// snippet extraction for the top 10 (no XPath filter, so the posting tier
// dominates). Pinned in CI: this is the paper-facing latency of "which
// documents talk about X".
func BenchmarkSearchTopK(b *testing.B) {
	setupSearch(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := searchBench.coll.Search(ctx, searchBench.query, "", 10)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Matched == 0 {
			b.Fatalf("query %q matched nothing", searchBench.query)
		}
	}
}
