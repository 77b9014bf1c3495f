package oracle

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// strategyConfigs are the base evaluator configurations the equivalence
// suite rotates through, mirroring the rotation of TestDifferential: the
// default planner, the naive text semantics, a plain-scan cutoff of 1
// (every contains/ends-with match set goes through the plain-text store) and
// an unreachable cutoff (every match set is located through the FM-index,
// including the frequent literals the default cost rule sends to the scan).
var strategyConfigs = []struct {
	name string
	opts xpath.Options
}{
	{"default", xpath.Options{}},
	{"naivetext", xpath.Options{ForceNaiveText: true}},
	{"plainscan", xpath.Options{PlainCutoff: 1}},
	{"fmonly", xpath.Options{PlainCutoff: math.MaxInt}},
}

var forcedStrategies = []xpath.Strategy{
	xpath.StrategyAuto, xpath.StrategyTopDown, xpath.StrategyBottomUp,
}

// drainIter pulls every result from the lazy iterator.
func drainIter(q *xpath.Query) ([]int, error) {
	it := q.Iter(context.Background())
	defer it.Close()
	var out []int
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, x)
	}
	return out, it.Err()
}

// loadedEngine builds data, saves the index and returns the engine core.Load
// decodes from the saved bytes; the caller closes it.
func loadedEngine(t *testing.T, data []byte, cfg core.Config) *core.Engine {
	t.Helper()
	built, err := core.BuildContext(context.Background(), data, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var saved bytes.Buffer
	if _, err := built.Save(&saved); err != nil {
		t.Fatalf("save: %v", err)
	}
	eng, err := core.Load(&saved, cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return eng
}

func toPreorders(eng *core.Engine, nodes []int) []int {
	out := make([]int, len(nodes))
	for i, x := range nodes {
		out[i] = eng.Doc.Preorder(x)
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStrategyEquivalence is the strategy-equivalence differential suite:
// every random (document, query) pair is evaluated under {auto,
// forced-top-down, forced-bottom-up} × {materialized, iterator} on top of
// the rotating base configurations, and every run must agree exactly with
// the DOM oracle (node identity by preorder, Count with the set size,
// Exists with set non-emptiness). The engines are built, saved and
// decoded again with core.Load, so every strategy and match-set arm runs
// on a loaded image, which is read-only: a write through a decoded
// payload faults here. The cost model's choice is recorded per
// query; the suite fails if it never picks one of the two strategies,
// because then that evaluation path was not actually differentially tested.
func TestStrategyEquivalence(t *testing.T) {
	const queriesPerDoc, spanQueriesPerDoc = 40, 10
	tally := &StrategyTally{}
	pairs, mismatches := 0, 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		mismatches++
		if mismatches > 10 {
			t.Fatal("too many mismatches, stopping")
		}
	}
	for _, c := range withSpanDoc {
		for seed := uint64(1); seed <= 2; seed++ {
			data := c.data(seed)
			eng := loadedEngine(t, data, core.Config{SampleRate: 4})
			tree, err := dom.Parse(data)
			if err != nil {
				t.Fatalf("%s/%d: dom: %v", c.name, seed, err)
			}
			v := ExtractVocab(tree, 200)
			r := gen.NewRNG(seed * 104729)
			queries := make([]string, 0, queriesPerDoc+5)
			for i := 0; i < queriesPerDoc; i++ {
				queries = append(queries, RandomQuery(r, v))
			}
			// Random queries over small documents rarely have a text
			// predicate more selective than the last step's tag, so add
			// handcrafted equality predicates (few exact matches, every
			// text leaf a candidate) that the cost model is guaranteed to
			// send bottom-up.
			for _, w := range v.Words {
				if len(queries) == queriesPerDoc+5 {
					break
				}
				queries = append(queries, "//text()[. = '"+w+"']")
			}
			// Span queries (text predicates on multi-text targets, literals
			// across text boundaries) after the rest, so the rotation above
			// is unchanged.
			for i := 0; i < spanQueriesPerDoc; i++ {
				queries = append(queries, SpanQuery(r, v))
			}
			for i, qsrc := range queries {
				base := strategyConfigs[i%len(strategyConfigs)]
				want, err := tree.Eval(qsrc)
				if err != nil {
					t.Fatalf("%s: oracle eval %q: %v", c.name, qsrc, err)
				}
				wantOrders := make([]int, len(want))
				for k, n := range want {
					wantOrders[k] = n.Order
				}
				pairs++
				for _, strat := range forcedStrategies {
					opts := base.opts
					opts.ForceStrategy = strat
					e := eng.WithQueryOptions(opts)
					q, err := e.Compile(qsrc)
					if err != nil {
						fail("%s/%s/%s: compile %q: %v", c.name, base.name, strat, qsrc, err)
						continue
					}
					if strat == xpath.StrategyAuto && base.name == "default" {
						tally.Record(q.Cost())
					}
					mat, err := q.NodesCtx(context.Background())
					if err != nil {
						fail("%s/%s/%s: nodes %q: %v", c.name, base.name, strat, qsrc, err)
						continue
					}
					if got := toPreorders(eng, mat); !sameInts(got, wantOrders) {
						fail("%s/%s/%s: %q: materialized %v, oracle %v (cost %v)",
							c.name, base.name, strat, qsrc, got, wantOrders, q.Cost())
						continue
					}
					lazy, err := drainIter(q)
					if err != nil {
						fail("%s/%s/%s: iter %q: %v", c.name, base.name, strat, qsrc, err)
						continue
					}
					if got := toPreorders(eng, lazy); !sameInts(got, wantOrders) {
						fail("%s/%s/%s: %q: iterator %v, oracle %v (cost %v)",
							c.name, base.name, strat, qsrc, got, wantOrders, q.Cost())
						continue
					}
					n, err := q.CountCtx(context.Background())
					if err != nil || n != int64(len(wantOrders)) {
						fail("%s/%s/%s: %q: count %d (err %v), oracle %d",
							c.name, base.name, strat, qsrc, n, err, len(wantOrders))
						continue
					}
					ex, err := q.Exists(context.Background())
					if err != nil || ex != (len(wantOrders) > 0) {
						fail("%s/%s/%s: %q: exists %v (err %v), oracle %v",
							c.name, base.name, strat, qsrc, ex, err, len(wantOrders) > 0)
					}
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d strategy pairs, want >= 300", pairs)
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d strategy pairs mismatched", mismatches, pairs)
	}
	if tally.Count(xpath.StrategyTopDown) == 0 || tally.Count(xpath.StrategyBottomUp) == 0 {
		t.Fatalf("cost model never exercised both strategies: %v", tally)
	}
	t.Logf("%d pairs × %d strategies × {materialized, iterator}, zero mismatches; auto decisions: %v",
		pairs, len(forcedStrategies), tally)
}

// domTexts collects the string values of every text and attribute-value
// leaf, in document order — the DOM view of the engine's text collection.
func domTexts(tree *dom.Tree) []string {
	var out []string
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Tag == "#" || c.Tag == "%" {
				out = append(out, string(c.Text))
				continue
			}
			walk(c)
		}
	}
	walk(tree.Root)
	return out
}

// domTagCounts counts every node label in the model tree (attribute-name
// nodes included: they share the tag namespace with elements).
func domTagCounts(tree *dom.Tree) map[string]int {
	counts := map[string]int{}
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			counts[c.Tag]++
			walk(c)
		}
	}
	walk(tree.Root)
	return counts
}

// countOccurrences counts the (overlapping) occurrences of pat across the
// texts — the quantity one FM backward search reports as GlobalCount.
func countOccurrences(texts []string, pat string) int {
	n := 0
	for _, s := range texts {
		for i := 0; i+len(pat) <= len(s); i++ {
			if s[i:i+len(pat)] == pat {
				n++
			}
		}
	}
	return n
}

// domSpanCount is the DOM-derived count of occurrence spans of pat: its
// (overlapping) occurrences in the concatenation of the element texts in
// document order, plus those inside each attribute value.
func domSpanCount(tree *dom.Tree, pat string) int {
	var elems strings.Builder
	var attrs []string
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			switch c.Tag {
			case "#":
				elems.Write(c.Text)
			case "%":
				attrs = append(attrs, string(c.Text))
			default:
				walk(c)
			}
		}
	}
	walk(tree.Root)
	return countOccurrences(append(attrs, elems.String()), pat)
}

// TestCostEstimatorExact pins the cost model's contract: its statistics are
// exact, not estimates. Per-tag candidate counts (from the tag rank
// directories) must equal true node counts from the DOM oracle,
// text-predicate match counts (from one FM backward search per pattern)
// must equal true match counts computed naively over the DOM's texts, and
// a contains on a multi-text target reports the DOM-derived span count.
func TestCostEstimatorExact(t *testing.T) {
	for _, c := range withSpanDoc {
		t.Run(c.name, func(t *testing.T) {
			data := c.data(1)
			eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := dom.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			v := ExtractVocab(tree, 100)
			tagCounts := domTagCounts(tree)
			texts := domTexts(tree)

			cost := func(src string) xpath.CostEstimate {
				t.Helper()
				q, err := eng.Compile(src)
				if err != nil {
					t.Fatalf("compile %q: %v", src, err)
				}
				return q.Cost()
			}

			tags := v.Tags
			if len(tags) > 30 {
				tags = tags[:30]
			}
			for _, tag := range tags {
				if got, want := cost("//"+tag).LastStepCount, tagCounts[tag]; got != want {
					t.Errorf("//%s: LastStepCount %d, dom count %d", tag, got, want)
				}
			}
			if got := cost("//zzqqabsenttag").LastStepCount; got != 0 {
				t.Errorf("absent tag: LastStepCount %d, want 0", got)
			}
			if got, want := cost("//text()").LastStepCount, len(texts); got != want {
				t.Errorf("//text(): LastStepCount %d, dom texts %d", got, want)
			}

			words := v.Words
			if len(words) > 15 {
				words = words[:15]
			}
			for _, w := range words {
				checks := []struct {
					src  string
					want int
				}{
					{"//text()[. = '" + w + "']", countMatching(texts, w, func(s, p string) bool { return s == p })},
					{"//text()[starts-with(., '" + w + "')]", countMatching(texts, w, strings.HasPrefix)},
					{"//text()[ends-with(., '" + w + "')]", countMatching(texts, w, strings.HasSuffix)},
					{"//text()[contains(., '" + w + "')]", countOccurrences(texts, w)},
				}
				for _, ck := range checks {
					est := cost(ck.src)
					if !est.BottomUpOK {
						t.Fatalf("%s: expected bottom-up-eligible shape", ck.src)
					}
					if est.TextMatches != ck.want {
						t.Errorf("%s: TextMatches %d, dom %d", ck.src, est.TextMatches, ck.want)
					}
				}
			}
			spans := 0
			for _, lit := range v.Spans {
				if lit == "" {
					continue
				}
				for _, src := range []string{"//*[contains(., '" + lit + "')]", "//*/node()[contains(., '" + lit + "')]"} {
					est := cost(src)
					if !est.BottomUpOK {
						t.Fatalf("%s: expected bottom-up-eligible shape", src)
					}
					if want := domSpanCount(tree, lit); est.TextMatches != want {
						t.Errorf("%s: TextMatches %d, dom span count %d", src, est.TextMatches, want)
					}
				}
				spans++
			}
			if spans < 5 {
				t.Errorf("only %d span literals", spans)
			}
		})
	}
}

func countMatching(texts []string, pat string, match func(s, p string) bool) int {
	n := 0
	for _, s := range texts {
		if match(s, pat) {
			n++
		}
	}
	return n
}
