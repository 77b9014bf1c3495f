package oracle

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// TestSerializeAllocsIndependentOfOutput is an allocation budget that does
// not scale with output: serializing through a cached compiled query, and
// GetSubtree of the whole document, allocate as often on a 256 KB XMark
// document as on a 64 KB one, whatever the number of results and the size
// of their subtrees.
func TestSerializeAllocsIndependentOfOutput(t *testing.T) {
	allocs := func(size int) map[string]float64 {
		eng, err := core.BuildContext(context.Background(), gen.XMark(1, size), core.Config{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, src := range []string{"/site/regions/*/item", "/site/*"} {
			q, err := eng.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			out[src] = testing.AllocsPerRun(20, func() {
				if _, err := q.SerializeCtx(context.Background(), io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		d := eng.Doc
		out["GetSubtree(root)"] = testing.AllocsPerRun(20, func() {
			if err := d.GetSubtree(d.Root(), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		return out
	}
	small, large := allocs(64<<10), allocs(256<<10)
	for name, n := range small {
		if large[name] != n {
			t.Errorf("%s: %.0f allocations at 64 KB, %.0f at 256 KB", name, n, large[name])
		}
	}
	t.Logf("allocations per call: %v", small)
}

// TestSpanPlanEffort pins the occurrence-span arm of contains on multi-text
// targets over 64 KB and 256 KB Medline:
//   - Cost() of M10, M11 and an M11-shape query whose literal crosses the
//     Year/Month boundary reports a bottom-up-eligible plan whose
//     TextMatches is the DOM-derived span count;
//   - a cached M11-shape count on the bottom-up arm, with a literal that
//     occurs once in both documents (PMID, the stray newline, Year and
//     Month of the first citation: four texts), allocates as often on the
//     larger document as on the smaller: it neither rescans nor allocates
//     with the document size.
func TestSpanPlanEffort(t *testing.T) {
	allocs := map[int]float64{}
	for _, size := range []int{64 << 10, 256 << 10} {
		data := gen.Medline(5, size)
		eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dom.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		year, err := tree.Eval("//Year/text()")
		if err != nil || len(year) == 0 {
			t.Fatalf("no Year text: %v", err)
		}
		month, err := tree.Eval("//Month/text()")
		if err != nil || len(month) == 0 {
			t.Fatalf("no Month text: %v", err)
		}
		unique := "00000000\n" + string(year[0].Text) + string(month[0].Text)
		var shapes []string
		for _, q := range bench.MedlineQueries {
			if q.ID == "M10" || q.ID == "M11" {
				shapes = append(shapes, q.Query)
			}
		}
		shapes = append(shapes,
			`//*/*[contains(., "`+string(year[1].Text)+string(month[1].Text)+`")]`,
			`//*/*[contains(., "`+strings.ReplaceAll(unique, "\n", `\n`)+`")]`)
		for _, src := range shapes {
			q, err := eng.Compile(src)
			if err != nil {
				t.Fatal(src, err)
			}
			lit := strings.ReplaceAll(src[strings.Index(src, `"`)+1:strings.LastIndex(src, `"`)], `\n`, "\n")
			est := q.Cost()
			if want := domSpanCount(tree, lit); !est.BottomUpOK || est.TextMatches != want {
				t.Errorf("%d KB %s: %v, want bottom-up eligible with %d spans", size>>10, src, est, want)
			}
		}
		q, err := eng.WithQueryOptions(xpath.Options{ForceStrategy: xpath.StrategyBottomUp}).Compile(shapes[3])
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := q.CountCtx(context.Background()); !q.UsesBottomUp() || n != 1 {
			t.Fatalf("%d KB %s: count %d, bottom-up %v; want the first MedlineCitation", size>>10, shapes[3], n, q.UsesBottomUp())
		}
		allocs[size] = testing.AllocsPerRun(20, func() { q.CountCtx(context.Background()) })
	}
	if allocs[64<<10] != allocs[256<<10] {
		t.Errorf("cached span count: %.0f allocations at 64 KB, %.0f at 256 KB", allocs[64<<10], allocs[256<<10])
	}
	t.Logf("allocations per cached span count: %v", allocs)
}

// suite is a corpus with the queries run on it.
type suite struct {
	data    []byte
	queries []struct{ ID, Query string }
}

// topDownSuites are TestPaperSuites' XMark and Treebank corpora at size
// with X01-X12 and T01-T05, the queries of the effort pins.
func topDownSuites(size int) []suite {
	return []suite{
		{gen.XMark(1, size), bench.XMarkQueries[:12]},
		{gen.Treebank(4, size), bench.TreebankQueries},
	}
}

// TestTopDownCountAllocs pins the warm evaluator: a cached top-down Count
// of X03, X04, X10, T02 and T03 allocates as often on 512 KB documents as
// on 64 KB ones, and at most twice per call. The JIT tables, the vals free
// list and the jump cursors live in the query's evaluator pool, so a run
// allocates nothing that grows with the document. A garbage collection
// between two calls empties the pool, so each figure is the least of three
// measurements.
func TestTopDownCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops evaluators at random")
	}
	pinned := map[string]bool{"X03": true, "X04": true, "X10": true, "T02": true, "T03": true}
	allocs := func(size int) map[string]float64 {
		out := map[string]float64{}
		for _, c := range topDownSuites(size) {
			eng, err := core.BuildContext(context.Background(), c.data, core.Config{SampleRate: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range c.queries {
				if !pinned[q.ID] {
					continue
				}
				cq, err := eng.Compile(q.Query)
				if err != nil {
					t.Fatal(q.ID, err)
				}
				if cq.Strategy() != "top-down" {
					t.Fatalf("%s: strategy %s, want top-down", q.ID, cq.Strategy())
				}
				out[q.ID] = math.Inf(1)
				for i := 0; i < 3; i++ {
					out[q.ID] = min(out[q.ID], testing.AllocsPerRun(20, func() { cq.CountCtx(context.Background()) }))
				}
			}
		}
		return out
	}
	small, large := allocs(64<<10), allocs(512<<10)
	for id, n := range small {
		if large[id] != n || n > 2 {
			t.Errorf("%s: %.0f allocations at 64 KB, %.0f at 512 KB; want equal and at most 2", id, n, large[id])
		}
	}
	t.Logf("allocations per cached count: %v", small)
}

// jumpEffort is Stats() after a Count of X01-X12 and T01-T05 on the 64 KB
// corpora of TestPaperSuites, recorded with the evaluator that answered
// every jump with fresh rank/select calls and built its state per run.
var jumpEffort = map[string]automata.Stats{
	"X01": {Visited: 18, Marked: 4}, "X02": {Visited: 119, Marked: 77},
	"X03": {Visited: 276, Marked: 2}, "X04": {Visited: 81, Marked: 38},
	"X05": {Visited: 268, Marked: 17}, "X06": {Visited: 175, Marked: 17},
	"X07": {Visited: 271, Marked: 27}, "X08": {Visited: 199, Marked: 27},
	"X09": {Visited: 199, Marked: 27}, "X10": {Visited: 290, Marked: 43},
	"X11": {Visited: 447, Marked: 43}, "X12": {Visited: 186, Marked: 8},
	"T01": {Visited: 1, Marked: 607}, "T02": {Visited: 1161, Marked: 2},
	"T03": {Visited: 941, Marked: 313}, "T04": {Visited: 145, Marked: 144},
	"T05": {Visited: 637, Marked: 0},
}

// TestJumpEffort pins where the jumps land: the cursors and the one-select
// successor visit and mark exactly the nodes the rank/select jumps did, on
// a query's first run and on its pooled second one.
func TestJumpEffort(t *testing.T) {
	for _, c := range topDownSuites(suiteSize) {
		eng, err := core.BuildContext(context.Background(), c.data, core.Config{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range c.queries {
			cq, err := eng.Compile(q.Query)
			if err != nil {
				t.Fatal(q.ID, err)
			}
			for run := 1; run <= 2; run++ {
				cq.CountCtx(context.Background())
				if got, want := cq.Stats(), jumpEffort[q.ID]; got != want {
					t.Errorf("%s run %d: %+v, want %+v", q.ID, run, got, want)
				}
			}
		}
	}
}
