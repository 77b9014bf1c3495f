package xpath

// Iterator-laziness tests: the streaming iterator must make Exists
// output-sensitive (first hit, not full evaluation) and the counting mode
// must stay allocation-bounded regardless of the result cardinality. Both
// run on a million-node document so an accidental fallback to materialized
// evaluation shows up as a gross, not marginal, violation.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

const millionNodes = 1 << 20

// millionDoc is <r><b/><a/><a/>...</r> with a million a elements after a
// single leading b.
func millionDoc(t testing.TB) *xmltree.Doc {
	t.Helper()
	var sb strings.Builder
	sb.Grow(4*millionNodes + 16)
	sb.WriteString("<r><b/>")
	for i := 0; i < millionNodes; i++ {
		sb.WriteString("<a/>")
	}
	sb.WriteString("</r>")
	d, err := xmltree.Parse([]byte(sb.String()), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExistsVisitsFirstHitOnly(t *testing.T) {
	d := millionDoc(t)
	q, err := Compile("//b", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !q.streamable() {
		t.Fatal("//b should stream")
	}
	ctx := context.Background()
	it, ok := q.Iter(ctx).(*scanIter)
	if !ok {
		t.Fatalf("Iter returned %T, want *scanIter", q.Iter(ctx))
	}
	defer it.Close()
	if _, found := it.Next(); !found {
		t.Fatalf("first Next: no result, err %v", it.Err())
	}
	// The jump-mode scan lands on the single b directly: one candidate
	// checked, not a million.
	if it.checked > 4 {
		t.Fatalf("first result took %d candidate checks, want O(1)", it.checked)
	}
	ex, err := q.Exists(ctx)
	if err != nil || !ex {
		t.Fatalf("Exists = %v, %v", ex, err)
	}
}

// TestIterStopsEarly pins the other half of laziness: pulling k results from
// a million-result query touches ~k candidates, not the full set.
func TestIterStopsEarly(t *testing.T) {
	d := millionDoc(t)
	q, err := Compile("//a", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := q.Iter(context.Background()).(*scanIter)
	defer it.Close()
	const k = 10
	for i := 0; i < k; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("Next %d: exhausted, err %v", i, it.Err())
		}
	}
	if it.checked > k+4 {
		t.Fatalf("%d results took %d candidate checks, want ~%d", k, it.checked, k)
	}
}

func TestCountAllocsBounded(t *testing.T) {
	d := millionDoc(t)
	q, err := Compile("//a", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.UsesBottomUp() || q.post != nil || q.mayOvercount {
		t.Fatal("expected a pure top-down counting query")
	}
	want, _ := q.CountCtx(context.Background())
	if want != millionNodes {
		t.Fatalf("Count = %d, want %d", want, millionNodes)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if n, _ := q.CountCtx(context.Background()); n != want {
			t.Fatalf("Count = %d, want %d", n, want)
		}
	})
	// Counting mode resolves //a from the tag rank directories (Section
	// 5.5.3/5.5.4): a handful of fixed evaluator structures, no per-result
	// work at all. Materializing the same query builds and expands the
	// million-node result sequence.
	if allocs > 100 {
		t.Fatalf("Count allocated %.0f objects per run; counting mode must not scale with the %d results",
			allocs, want)
	}
}
