package oracle

import (
	"context"
	"io"
	"strings"
	"testing"

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
		eng, err := core.Build(gen.XMark(1, size), core.Config{SampleRate: 4})
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
		eng, err := core.Build(data, core.Config{SampleRate: 4})
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
		if n := q.Count(); !q.UsesBottomUp() || n != 1 {
			t.Fatalf("%d KB %s: count %d, bottom-up %v; want the first MedlineCitation", size>>10, shapes[3], n, q.UsesBottomUp())
		}
		allocs[size] = testing.AllocsPerRun(20, func() { q.Count() })
	}
	if allocs[64<<10] != allocs[256<<10] {
		t.Errorf("cached span count: %.0f allocations at 64 KB, %.0f at 256 KB", allocs[64<<10], allocs[256<<10])
	}
	t.Logf("allocations per cached span count: %v", allocs)
}
