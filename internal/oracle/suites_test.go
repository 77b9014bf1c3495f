package oracle

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/fmindex"
	"repro/internal/gen"
	"repro/internal/pssm"
	"repro/internal/stream"
	"repro/internal/wordindex"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// suiteSize is the corpus size of TestPaperSuites: the paper's query suites
// on the benchmark generators and seeds, small enough for tier-1.
const suiteSize = 64 << 10

// fig12 are Figure 12's evaluator configurations.
var fig12 = []automata.Options{
	{NoJump: true, NoMemo: true, NoEarly: true, NoLazy: true},
	{NoMemo: true, NoEarly: true},
	{NoJump: true, NoLazy: true},
	{},
}

func buildSuite(t *testing.T, data []byte, cfg core.Config) (*core.Engine, *dom.Tree) {
	t.Helper()
	eng, err := core.Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dom.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tree
}

// succinctNodes counts the nodes below and including x by a FirstChild /
// NextSibling recursion (Table V's traversal).
func succinctNodes(doc *xmltree.Doc, x int) int {
	n := 1
	for c := doc.FirstChild(x); c != xmltree.Nil; c = doc.NextSibling(c) {
		n += succinctNodes(doc, c)
	}
	return n
}

func domNodes(x *dom.Node) int {
	n := 1
	for c := x.FirstChild; c != nil; c = c.NextSibling {
		n += domNodes(c)
	}
	return n
}

// sameResults fails unless engines a and b return the same nodes and count
// for src (both are views of one document, so node ids compare directly).
// It returns the result count.
func sameResults(t *testing.T, id string, a, b *core.Engine, src string) int {
	t.Helper()
	na, err := a.Nodes(src)
	if err != nil {
		t.Fatal(id, err)
	}
	nb, err := b.Nodes(src)
	if err != nil {
		t.Fatal(id, err)
	}
	ca, errA := a.Count(src)
	cb, errB := b.Count(src)
	if errA != nil || errB != nil {
		t.Fatal(id, errA, errB)
	}
	if !slices.Equal(na, nb) || ca != cb || ca != int64(len(na)) {
		t.Errorf("%s: %d nodes / count %d against reference %d nodes / count %d", id, len(na), ca, len(nb), cb)
	}
	return len(na)
}

// TestPaperSuites checks the query suites of the Section 6 benchmarks
// (internal/bench) against the baselines those benchmarks compare with, on
// 64 KB corpora:
//   - X01-X17, T01-T05 and M01-M11: Count and Nodes equal the DOM's, and
//     Serialize writes the DOM's serialization byte for byte, under auto,
//     top-down and bottom-up, each with the four Figure 12 ablation
//     configurations; the streaming count equals the DOM's wherever
//     stream.Compile accepts the query; so do the introduction's streaming
//     paths;
//   - Table V: the succinct traversal visits as many nodes as the DOM's;
//   - Table VI: each tag's raw occurrence loop finds the DOM's //tag count;
//   - W01-W10 through the word index equal a naive phrase scan;
//   - P1-P9 with pssm.Search equal pssm.ScanTexts, occurrence by occurrence.
func TestPaperSuites(t *testing.T) {
	type query = struct{ ID, Query string }
	medline := gen.Medline(101, suiteSize)
	var mq []query
	for _, q := range bench.MedlineQueries {
		mq = append(mq, query{q.ID, q.Query})
	}
	suites := []struct {
		name    string
		data    []byte
		queries []query
	}{
		{"xmark", gen.XMark(1, suiteSize), append(slices.Clone(bench.XMarkQueries), bench.StreamQueries...)},
		{"treebank", gen.Treebank(4, suiteSize), bench.TreebankQueries},
		{"medline", medline, mq},
	}
	for _, s := range suites {
		eng, tree := buildSuite(t, s.data, core.Config{SampleRate: 4})
		if got, want := succinctNodes(eng.Doc, eng.Doc.Root()), domNodes(tree.Root); got != want {
			t.Errorf("%s: succinct traversal %d nodes, DOM %d", s.name, got, want)
		}
		var engs []*core.Engine
		for _, strat := range forcedStrategies {
			for _, eval := range fig12 {
				engs = append(engs, eng.WithQueryOptions(xpath.Options{ForceStrategy: strat, Eval: eval}))
			}
		}
		for _, q := range s.queries {
			want, err := tree.Eval(q.Query)
			if err != nil {
				t.Fatal(q.ID, err)
			}
			wantOrders := make([]int, len(want))
			for i, n := range want {
				wantOrders[i] = n.Order
			}
			for i, e := range engs {
				nodes, err := e.Nodes(q.Query)
				if err != nil {
					t.Fatal(q.ID, err)
				}
				n, err := e.Count(q.Query)
				if err != nil {
					t.Fatal(q.ID, err)
				}
				id := fmt.Sprintf("%s %s, %s/ablation %d", s.name, q.ID, forcedStrategies[i/len(fig12)], i%len(fig12))
				if got := toPreorders(eng, nodes); !slices.Equal(got, wantOrders) || n != int64(len(want)) {
					t.Errorf("%s: %d nodes, count %d; DOM %d", id, len(got), n, len(want))
				}
				sameSerialization(t, id, e, q.Query, want)
			}
			if sq, err := stream.Compile(q.Query); err == nil {
				if n, err := sq.Count(s.data); err != nil || n != int64(len(want)) {
					t.Errorf("%s %s: stream count %d (%v), DOM %d", s.name, q.ID, n, err, len(want))
				}
			}
		}
		if s.name != "xmark" {
			continue
		}
		for _, tag := range []string{"incategory", "price", "listitem", "keyword"} {
			open, n := 2*eng.Doc.TagID(tag), 0
			for p := eng.Doc.Tag.NextOccurrence(open, 0); p != -1; p = eng.Doc.Tag.NextOccurrence(open, p+1) {
				n++
			}
			if want, err := tree.Eval("//" + tag); err != nil || n == 0 || n != len(want) {
				t.Errorf("//%s: occurrence loop %d, DOM %d (%v)", tag, n, len(want), err)
			}
		}
	}

	// Word index (Table VII): the same queries with wcontains answered by
	// the word-level suffix array and by a tokenize-and-scan.
	nonEmpty := 0
	for _, c := range []struct {
		data    []byte
		medline bool
	}{{medline, true}, {gen.Wiki(202, suiteSize), false}} {
		eng, _ := buildSuite(t, c.data, core.Config{SampleRate: 4})
		texts := eng.Doc.Plain.All()
		widx, err := wordindex.New(texts)
		if err != nil {
			t.Fatal(err)
		}
		word := eng.WithQueryOptions(xpath.Options{CustomMatchSets: map[string]func(string) []int32{
			"wcontains": widx.ContainsPhrase,
		}})
		naive := eng.WithQueryOptions(xpath.Options{CustomMatchSets: map[string]func(string) []int32{
			"wcontains": func(p string) []int32 { return PhraseTexts(texts, p) },
		}})
		for _, q := range bench.WordQueries {
			if q.Medline == c.medline && sameResults(t, q.ID, word, naive, q.Query) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Error("every word query is empty: the word index check is vacuous")
	}

	// PSSM (Figure 18): branch-and-bound backtracking over the FM-index
	// against the brute-force scan.
	bio, _ := buildSuite(t, gen.BioXML(77, suiteSize), core.Config{SampleRate: 16})
	fm, texts := bio.Doc.FM, bio.Doc.Plain.All()
	matrices := map[string]pssm.Matrix{"M1": pssm.M1(), "M2": pssm.M2(), "M3": pssm.M3()}
	backed := func(find func(m *pssm.Matrix, thr float64) []fmindex.Occurrence) *core.Engine {
		return bio.WithQueryOptions(xpath.Options{CustomMatchSets: map[string]func(string) []int32{
			"pssm": func(lit string) []int32 {
				m := matrices[lit]
				return pssm.DistinctTexts(find(&m, m.MaxScore()*bench.PSSMThresholds[lit]))
			},
		}})
	}
	search := func(m *pssm.Matrix, thr float64) []fmindex.Occurrence { return pssm.Search(fm, m, thr) }
	scan := func(m *pssm.Matrix, thr float64) []fmindex.Occurrence { return pssm.ScanTexts(texts, m, thr) }
	occs := 0
	for name, m := range matrices {
		thr := m.MaxScore() * bench.PSSMThresholds[name]
		got, want := search(&m, thr), scan(&m, thr)
		if !slices.Equal(got, want) {
			t.Errorf("%s: backtracking %d occurrences, scan %d", name, len(got), len(want))
		}
		occs += len(want)
	}
	if occs == 0 {
		t.Error("no PSSM occurrences: the backtracking check is vacuous")
	}
	fmEng, scanEng := backed(search), backed(scan)
	for _, q := range bench.PSSMQueries {
		sameResults(t, q.ID, fmEng, scanEng, q.Query)
	}
}
