package oracle

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
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
