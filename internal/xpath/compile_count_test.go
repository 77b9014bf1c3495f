package xpath

import (
	"context"
	"testing"

	"repro/internal/xmltree"
)

// TestCountNestedDescendantChains pins the second inexact counting shape: a
// descendant step with a child continuation followed by a later descendant
// step. With nested matches of the first step, the same result is reachable
// from child-spawns at several depths, so exact counters would double-count;
// the compiler must flag the query and Count must fall back to set
// semantics. Found by the parallel-build differential suite on
// //*/node()[...]//tag queries.
func TestCountNestedDescendantChains(t *testing.T) {
	const doc = `<r><a><b><a><b><x/></b></a></b></a></r>`
	d, err := xmltree.Parse([]byte(doc), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		flag  bool
	}{
		{"//a/b//x", true}, // nested <a>: x has two (a,b) derivations
		{"//a/node()//x", true},
		{"//a//x", false},  // desc-desc stays exact (first-match pruning)
		{"//a/b/x", false}, // fixed depth below the spawn stays exact
	} {
		q, err := Compile(tc.query, d, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if q.auto != nil && q.mayOvercount != tc.flag {
			t.Errorf("%s: mayOvercount = %v, want %v", tc.query, q.mayOvercount, tc.flag)
		}
		nodes, _ := q.NodesCtx(context.Background())
		if n, _ := q.CountCtx(context.Background()); n != int64(len(nodes)) {
			t.Errorf("%s: Count = %d, Nodes = %d", tc.query, n, len(nodes))
		}
	}
}
