package oracle

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// corpora: five generators with different shapes (attribute-heavy auction
// data, flat bibliographic records, deep recursion, wiki text, long DNA
// strings), two seeds each.
var corpora = []struct {
	name string
	data func(seed uint64) []byte
}{
	{"xmark", func(s uint64) []byte { return gen.XMark(s, 12<<10) }},
	{"medline", func(s uint64) []byte { return gen.Medline(s, 12<<10) }},
	{"treebank", func(s uint64) []byte { return gen.Treebank(s, 8<<10) }},
	{"wiki", func(s uint64) []byte { return gen.Wiki(s, 12<<10) }},
	{"bioxml", func(s uint64) []byte { return gen.BioXML(s, 12<<10) }},
}

// withSpanDoc is corpora plus a SpanDoc corpus, whose string values cross
// a text boundary every few bytes, for the suites that run span queries.
var withSpanDoc = append(corpora[:len(corpora):len(corpora)], struct {
	name string
	data func(seed uint64) []byte
}{"spandoc", func(s uint64) []byte { return SpanDoc(gen.NewRNG(s), 60) }})

// spanArms are the configurations every span pair runs under: the cost
// model's choice, both strategies forced, and the naive string values.
var spanArms = []xpath.Options{
	{},
	{ForceStrategy: xpath.StrategyTopDown},
	{ForceStrategy: xpath.StrategyBottomUp},
	{ForceNaiveText: true},
}

// TestDifferential is the differential oracle suite: ≥500 random
// (document, query) pairs, each evaluated by the succinct engine (default
// planner and, for a rotating third of the pairs, forced top-down or with
// the FM-index disabled) and by the naive dom walker; node sets must agree
// exactly (by preorder number), Count must agree with the set size, and
// Serialize must write the DOM's serialization of the set. Each document
// also gets span pairs (SpanQuery: text predicates on multi-text targets
// with literals across text boundaries), each run under every spanArms
// configuration.
func TestDifferential(t *testing.T) {
	const queriesPerDoc, spanQueriesPerDoc = 60, 12
	pairs, mismatches := 0, 0
	for _, c := range withSpanDoc {
		for seed := uint64(1); seed <= 2; seed++ {
			data := c.data(seed)
			eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
			if err != nil {
				t.Fatalf("%s/%d: build: %v", c.name, seed, err)
			}
			tree, err := dom.Parse(data)
			if err != nil {
				t.Fatalf("%s/%d: dom: %v", c.name, seed, err)
			}
			v := ExtractVocab(tree, 200)
			if len(v.Tags) == 0 {
				t.Fatalf("%s/%d: empty vocabulary", c.name, seed)
			}
			r := gen.NewRNG(seed * 7919)
			for i := 0; i < queriesPerDoc; i++ {
				q := RandomQuery(r, v)
				e := eng
				switch i % 3 {
				case 1:
					e = eng.WithQueryOptions(xpath.Options{ForceStrategy: xpath.StrategyTopDown})
				case 2:
					e = eng.WithQueryOptions(xpath.Options{ForceNaiveText: true})
				}
				pairs++
				if !checkOne(t, c.name, e, tree, q) {
					mismatches++
					if mismatches > 10 {
						t.Fatal("too many mismatches, stopping")
					}
				}
			}
			for i := 0; i < spanQueriesPerDoc; i++ {
				q := SpanQuery(r, v)
				pairs++
				for _, opts := range spanArms {
					if !checkOne(t, fmt.Sprintf("%s %+v", c.name, opts), eng.WithQueryOptions(opts), tree, q) {
						mismatches++
						if mismatches > 10 {
							t.Fatal("too many mismatches, stopping")
						}
						break
					}
				}
			}
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d differential pairs, want >= 500", pairs)
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d pairs mismatched", mismatches, pairs)
	}
	t.Logf("%d differential pairs, zero mismatches", pairs)
}

func checkOne(t *testing.T, name string, eng *core.Engine, tree *dom.Tree, q string) bool {
	t.Helper()
	want, err := tree.Eval(q)
	if err != nil {
		t.Errorf("%s: oracle eval %q: %v", name, q, err)
		return false
	}
	got, err := eng.Nodes(context.Background(), q)
	if err != nil {
		t.Errorf("%s: engine compile %q: %v", name, q, err)
		return false
	}
	if len(got) != len(want) {
		t.Errorf("%s: %q: engine %d nodes, oracle %d", name, q, len(got), len(want))
		return false
	}
	for i, x := range got {
		if eng.Doc.Preorder(x) != want[i].Order {
			t.Errorf("%s: %q: node %d: engine preorder %d, oracle %d", name, q, i, eng.Doc.Preorder(x), want[i].Order)
			return false
		}
	}
	n, err := eng.Count(context.Background(), q)
	if err != nil {
		t.Errorf("%s: engine count %q: %v", name, q, err)
		return false
	}
	if n != int64(len(want)) {
		t.Errorf("%s: %q: engine count %d, oracle %d", name, q, n, len(want))
		return false
	}
	return sameSerialization(t, name+": "+q, eng, q, want)
}

// sameSerialization checks Serialize against the DOM's serialization of
// the oracle's result nodes, each followed by a newline, byte for byte.
func sameSerialization(t *testing.T, id string, eng *core.Engine, q string, want []*dom.Node) bool {
	t.Helper()
	var got, exp bytes.Buffer
	if _, err := eng.Serialize(context.Background(), q, &got); err != nil {
		t.Errorf("%s: serialize: %v", id, err)
		return false
	}
	for _, n := range want {
		n.Serialize(&exp)
		exp.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		i := 0
		for i < got.Len() && i < exp.Len() && got.Bytes()[i] == exp.Bytes()[i] {
			i++
		}
		t.Errorf("%s: serialization differs from the DOM's at byte %d of %d/%d: %.80q vs %.80q",
			id, i, got.Len(), exp.Len(), got.Bytes()[i:], exp.Bytes()[i:])
		return false
	}
	return true
}

// TestDifferentialParallelBuild runs the differential oracle over engines
// built by the parallel, memory-bounded pipeline (8 workers, a 1 MiB
// transient budget that forces the spill path): ≥450 random (document,
// query) pairs across the 5 corpora × 2 seeds must match the dom walker
// exactly. Together with the byte-identity suite in package build, this
// pins that parallel-built indexes answer queries identically.
func TestDifferentialParallelBuild(t *testing.T) {
	const queriesPerDoc = 45
	pairs, mismatches := 0, 0
	cfg := core.Config{SampleRate: 4, BuildProcs: 8, MemoryBudget: 1 << 20, BuildTempDir: t.TempDir()}
	for _, c := range corpora {
		for seed := uint64(1); seed <= 2; seed++ {
			data := c.data(seed)
			eng, err := core.BuildContext(context.Background(), data, cfg)
			if err != nil {
				t.Fatalf("%s/%d: parallel build: %v", c.name, seed, err)
			}
			tree, err := dom.Parse(data)
			if err != nil {
				t.Fatalf("%s/%d: dom: %v", c.name, seed, err)
			}
			v := ExtractVocab(tree, 200)
			r := gen.NewRNG(seed*104729 + 17)
			for i := 0; i < queriesPerDoc; i++ {
				q := RandomQuery(r, v)
				pairs++
				if !checkOne(t, c.name, eng, tree, q) {
					mismatches++
					if mismatches > 10 {
						t.Fatal("too many mismatches, stopping")
					}
				}
			}
		}
	}
	if pairs < 450 {
		t.Fatalf("only %d differential pairs, want >= 450", pairs)
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d pairs mismatched", mismatches, pairs)
	}
	t.Logf("%d differential pairs over parallel-built indexes, zero mismatches", pairs)
}

// TestGeneratedQueriesAlwaysCompile pins the generator's contract: every
// query it emits parses and compiles (a parse error on generated input is a
// generator bug, which would silently shrink the differential suite).
func TestGeneratedQueriesAlwaysCompile(t *testing.T) {
	data := gen.XMark(3, 8<<10)
	eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dom.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	v := ExtractVocab(tree, 100)
	r := gen.NewRNG(42)
	for i := 0; i < 500; i++ {
		q := RandomQuery(r, v)
		if _, err := eng.Compile(q); err != nil {
			t.Fatalf("generated query %q does not compile: %v", q, err)
		}
	}
}
