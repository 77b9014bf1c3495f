// Benchmarks regenerating the paper's tables and figures (one bench per
// table/figure; the cmd/sxsibench harness prints the full paper-style
// tables). Corpora are built once per process and shared.
package sxsi

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
	"repro/internal/pssm"
	"repro/internal/search"
	"repro/internal/wordindex"
	"repro/internal/xpath"
)

const benchSize = 2 << 20 // per-corpus size for go test -bench

var corpora struct {
	once    sync.Once
	xmark   []byte
	medline []byte
	tbank   []byte
	bio     []byte

	xmarkIdx   *core.Engine
	medlineIdx *core.Engine
	tbankIdx   *core.Engine
	bioIdx     *core.Engine
	xmarkDOM   *dom.Tree
}

func setup(b *testing.B) {
	b.Helper()
	corpora.once.Do(func() {
		corpora.xmark = gen.XMark(1, benchSize)
		corpora.medline = gen.Medline(101, benchSize)
		corpora.tbank = gen.Treebank(4, benchSize)
		corpora.bio = gen.BioXML(77, benchSize)
		var err error
		if corpora.xmarkIdx, err = core.Build(corpora.xmark, core.Config{}); err != nil {
			panic(err)
		}
		if corpora.medlineIdx, err = core.Build(corpora.medline, core.Config{}); err != nil {
			panic(err)
		}
		if corpora.tbankIdx, err = core.Build(corpora.tbank, core.Config{}); err != nil {
			panic(err)
		}
		if corpora.bioIdx, err = core.Build(corpora.bio, core.Config{RunLength: true, SampleRate: 16}); err != nil {
			panic(err)
		}
		if corpora.xmarkDOM, err = dom.Parse(corpora.xmark); err != nil {
			panic(err)
		}
	})
}

// BenchmarkBuild measures full index construction (parse, suffix sort,
// wavelet trees) on the XMark corpus. Compare with BenchmarkLoad: loading
// a saved index skips the suffix sort and is expected to be at least an
// order of magnitude faster (Figure 8).
func BenchmarkBuild(b *testing.B) {
	setup(b)
	b.SetBytes(int64(len(corpora.xmark)))
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(corpora.xmark, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildParallel measures the staged parallel build (internal/build)
// on the XMark corpus at one worker and, where there is more than one
// processor, at NumCPU workers. The two sub-benchmarks share a corpus and
// differ only in -p, so their ratio is the end-to-end parallel speedup
// (suffix sort chunked across workers, structure assembly overlapped with
// the text side); on multi-core hardware p=NumCPU is expected to be well
// over 2.5x faster than p=1.
func BenchmarkBuildParallel(b *testing.B) {
	setup(b)
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	for _, p := range procs {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			cfg := core.Config{BuildProcs: p}
			b.SetBytes(int64(len(corpora.xmark)))
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildContext(context.Background(), corpora.xmark, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoad measures deserializing a saved index of the same corpus:
// one copy into an aligned heap buffer, then the decoder the mapped open
// runs.
func BenchmarkLoad(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	if _, err := corpora.xmarkIdx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(corpora.xmark)))
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
	if _, err := corpora.xmarkIdx.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(corpora.xmark)))
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
// benchstat can compare open latencies directly.
var largeIdx struct {
	once sync.Once
	path string
	size int64
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
		eng, err := core.Build(gen.XMark(11, mb<<20), core.Config{})
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
		if _, err := core.LoadFile(path, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_IndexConstruction measures Build (Figure 8, construction).
func BenchmarkFig8_IndexConstruction(b *testing.B) {
	setup(b)
	b.SetBytes(int64(len(corpora.xmark)))
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(corpora.xmark, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_IndexLoad measures Load vs Build (Figure 8, loading).
func BenchmarkFig8_IndexLoad(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	if _, err := corpora.xmarkIdx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Load(bytes.NewReader(buf.Bytes()), core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_FMSearch covers the Table II/III FM-index operations at
// both sampling rates.
func BenchmarkTable2_FMSearch(b *testing.B) {
	setup(b)
	for _, rate := range []int{64, 4} {
		eng, err := core.Build(corpora.medline, core.Config{SampleRate: rate})
		if err != nil {
			b.Fatal(err)
		}
		fm := eng.Doc.FM
		b.Run(map[int]string{64: "l64", 4: "l4"}[rate]+"/GlobalCount", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fm.GlobalCount([]byte("brain"))
			}
		})
		b.Run(map[int]string{64: "l64", 4: "l4"}[rate]+"/Contains", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fm.Contains([]byte("brain"))
			}
		})
	}
	b.Run("naive-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, t := range corpora.medlineIdx.Doc.Plain.All() {
				if bytes.Contains(t, []byte("brain")) {
					n++
				}
			}
		}
	})
}

// BenchmarkTable4_Construction compares pointer vs succinct construction.
func BenchmarkTable4_Construction(b *testing.B) {
	setup(b)
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dom.Parse(corpora.xmark); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("succinct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(corpora.xmark, core.Config{SkipFM: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5_Traversal compares full traversals (Table V).
func BenchmarkTable5_Traversal(b *testing.B) {
	setup(b)
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var walk func(*dom.Node) int
			walk = func(x *dom.Node) int {
				n := 1
				for c := x.FirstChild; c != nil; c = c.NextSibling {
					n += walk(c)
				}
				return n
			}
			walk(corpora.xmarkDOM.Root)
		}
	})
	b.Run("succinct", func(b *testing.B) {
		doc := corpora.xmarkIdx.Doc
		for i := 0; i < b.N; i++ {
			var walk func(int) int
			walk = func(x int) int {
				n := 1
				for c := doc.FirstChild(x); c != -1; c = doc.NextSibling(c) {
					n += walk(c)
				}
				return n
			}
			walk(doc.Root())
		}
	})
}

// BenchmarkTable6_TaggedTraversal measures the jump primitives (Table VI).
func BenchmarkTable6_TaggedTraversal(b *testing.B) {
	setup(b)
	doc := corpora.xmarkIdx.Doc
	id := doc.TagID("keyword")
	b.Run("jump", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for p := doc.Tag.NextOccurrence(2*id, 0); p != -1; p = doc.Tag.NextOccurrence(2*id, p+1) {
				n++
			}
		}
	})
	b.Run("automaton-count", func(b *testing.B) {
		q, _ := corpora.xmarkIdx.Compile("//keyword")
		for i := 0; i < b.N; i++ {
			q.Count()
		}
	})
	b.Run("automaton-mat", func(b *testing.B) {
		q, _ := corpora.xmarkIdx.Compile("//keyword")
		for i := 0; i < b.N; i++ {
			q.Nodes()
		}
	})
}

// BenchmarkFig10_XMark runs the X01-X17 suite (Figure 10): SXSI counting and
// serialization vs the DOM baseline.
func BenchmarkFig10_XMark(b *testing.B) {
	setup(b)
	for _, q := range bench.XMarkQueries {
		cq, err := corpora.xmarkIdx.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		b.Run(q.ID+"/count", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq.Count()
			}
		})
		b.Run(q.ID+"/serialize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cq.Serialize(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/dom", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corpora.xmarkDOM.Eval(q.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11_Treebank runs T01-T05 (Figure 11).
func BenchmarkFig11_Treebank(b *testing.B) {
	setup(b)
	for _, q := range bench.TreebankQueries {
		cq, err := corpora.tbankIdx.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq.Count()
			}
		})
	}
}

// BenchmarkFig12_Ablation toggles the evaluator optimizations (Figure 12).
func BenchmarkFig12_Ablation(b *testing.B) {
	setup(b)
	configs := []struct {
		name string
		opts automata.Options
	}{
		{"naive", automata.Options{NoJump: true, NoMemo: true, NoEarly: true, NoLazy: true}},
		{"jump-only", automata.Options{NoMemo: true, NoEarly: true}},
		{"memo-only", automata.Options{NoJump: true, NoLazy: true}},
		{"all-opts", automata.Options{}},
	}
	for _, cfg := range configs {
		eng := corpora.xmarkIdx.WithEval(cfg.opts)
		q, err := eng.Compile("//listitem[not(.//keyword/emph)]//parlist") // X10
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Count()
			}
		})
	}
}

// BenchmarkFig15_MedlineText runs the M-query suite (Figures 14/15). <ID>
// counts with a compiled query whose match sets are already built; first/<ID>
// compiles and counts per iteration, so it pays the match-set construction
// (locate or plain scan) that a query-cache miss pays.
func BenchmarkFig15_MedlineText(b *testing.B) {
	setup(b)
	for _, q := range bench.MedlineQueries {
		cq, err := corpora.medlineIdx.Compile(q.Query)
		if err != nil {
			b.Fatal(q.ID, err)
		}
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq.Count()
			}
		})
	}
	for _, q := range bench.MedlineQueries {
		b.Run("first/"+q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corpora.medlineIdx.Count(q.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAncestor measures an upward main-path step: the automaton
// materializes //keyword and the navigational post-step climbs to the
// enclosing listitems via BP Parent/Enclose, deduplicating shared ancestors.
func BenchmarkAncestor(b *testing.B) {
	setup(b)
	b.Run("succinct", func(b *testing.B) {
		q, err := corpora.xmarkIdx.Compile("//keyword/ancestor::listitem")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.Count()
		}
	})
	b.Run("dom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corpora.xmarkDOM.Eval("//keyword/ancestor::listitem"); err != nil {
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
		q, err := corpora.xmarkIdx.Compile("//parlist/preceding-sibling::text")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.Count()
		}
	})
	// Existence form: the early-exit scan stops at the first preceding match.
	b.Run("exists", func(b *testing.B) {
		q, err := corpora.xmarkIdx.Compile("//parlist[not(preceding::parlist)]")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q.Count()
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
		{"xmark", corpora.xmarkIdx, "//keyword/parent::*"},
		{"medline", corpora.medlineIdx, "//LastName/ancestor::MedlineCitation"},
		{"treebank", corpora.tbankIdx, "//VP/preceding-sibling::NP"},
		{"bioxml", corpora.bioIdx, "//exon/ancestor-or-self::gene"},
	}
	for _, c := range cases {
		q, err := c.eng.Compile(c.query)
		if err != nil {
			b.Fatal(c.name, err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Count()
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

// BenchmarkTable7_WordIndex runs phrase queries through the word index.
func BenchmarkTable7_WordIndex(b *testing.B) {
	setup(b)
	widx, err := wordindex.New(corpora.medlineIdx.Doc.Plain.All())
	if err != nil {
		b.Fatal(err)
	}
	eng := corpora.medlineIdx.WithQueryOptions(xpath.Options{
		CustomMatchSets: map[string]func(string) []int32{"wcontains": widx.ContainsPhrase},
	})
	q, err := eng.Compile(`//Article[.//AbstractText[wcontains(., "blood sample")]]`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("W01", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Count()
		}
	})
}

// BenchmarkFig18_PSSM runs PSSM search over the run-length-indexed BioXML
// document (Figure 18), fm-backtracking vs plain scan.
func BenchmarkFig18_PSSM(b *testing.B) {
	setup(b)
	m := pssm.M1()
	thr := m.MaxScore() * 0.85
	b.Run("fm-backtrack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pssm.Search(corpora.bioIdx.Doc.FM, &m, thr)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pssm.ScanTexts(corpora.bioIdx.Doc.Plain.All(), &m, thr)
		}
	})
}

// BenchmarkExistsEarly measures the lazy existence probe on the streaming
// iterator: Exists pulls one result from the document-order scan and stops,
// so its cost is the jump to the first verified candidate, independent of
// the thousands of keywords in the full result set (compare with
// BenchmarkCountStream on the same query).
func BenchmarkExistsEarly(b *testing.B) {
	setup(b)
	q, err := corpora.xmarkIdx.Compile("//listitem//keyword")
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
	q, err := corpora.xmarkIdx.Compile("//listitem//keyword")
	if err != nil {
		b.Fatal(err)
	}
	want := q.Count()
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
		c.Add("xmark", corpora.xmarkIdx)
		c.Add("medline", corpora.medlineIdx)
		c.Add("treebank", corpora.tbankIdx)
		c.Add("bioxml", corpora.bioIdx)
		freq := map[string]int{}
		for id := 0; id < corpora.xmarkIdx.Doc.NumTexts(); id++ {
			for _, tok := range search.Tokenize(corpora.xmarkIdx.Doc.Text(id)) {
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
