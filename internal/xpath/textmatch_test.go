package xpath

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/xmltree"
)

// TestBottomUpMatchSetOnce pins that a query forced bottom-up computes its
// text predicate's match set once per compiled query, and that the plan and
// the predicate the streaming iterator tests read that one set: the custom
// set of //b[f(., 'x')] runs once for the cost model's estimate at Compile,
// once more for the set at the first evaluation, and not again for a
// drained Iter.
func TestBottomUpMatchSetOnce(t *testing.T) {
	d, err := xmltree.Parse([]byte(`<r><b>x</b><b>y</b><a><b>x</b></a></r>`), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	q, err := Compile(`//b[f(., 'x')]`, d, Options{
		ForceStrategy: StrategyBottomUp,
		CustomMatchSets: map[string]func(string) []int32{
			"f": func(string) []int32 { calls++; return []int32{0, 2} }, // the two "x" texts
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.plan == nil {
		t.Fatalf("plan %s, want bottom-up", q.Strategy())
	}
	check := func(after string, want int) {
		t.Helper()
		if calls != want {
			t.Errorf("after %s the custom set was computed %d times, want %d", after, calls, want)
		}
	}
	check("Compile", 1)
	ctx := context.Background()
	if n, err := q.CountCtx(ctx); err != nil || n != 2 {
		t.Fatalf("CountCtx = %d, %v; want 2", n, err)
	}
	check("CountCtx", 2)
	it := q.Iter(ctx)
	n := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 2 {
		t.Fatalf("Iter streamed %d nodes, %v; want 2", n, err)
	}
	check("a drained Iter", 2)
}

// FuzzTextScan checks the plain-store scans against a per-text pass. The
// input's 0 bytes cut data into texts, which become attribute values (the
// only texts that can be empty) and element texts by turns; lit is the
// literal. TextStore.Contains, with every byte of the literal as the
// prefilter byte, and TextStore.EndsWith must find exactly the texts that
// bytes.Contains and bytes.HasSuffix accept, and so must matchSet with the
// scan forced and with the FM-index forced, on the parsed document and on
// its saved-then-mapped copy.
func FuzzTextScan(f *testing.F) {
	for _, s := range []struct{ data, lit string }{
		{"abc\x00abcabc\x00\x00bc", "bc"},
		{"aaa\x00a\x00aa", "aa"},
		{"ab\x00cd\x00ef", "bc"}, // straddles a text end: no match
		{"x\x00\x00y\x00", "xy"}, // across empty texts
		{"\xff\xfe\x80\x00\x80\x80", "\x80"},
		{"zzzzzzzz\x00zzz", "zzzz"},
		{"ab\x00ba\x00a", "a"},
		{"cab\x00ab", "ab"},
		{"<a&b>\x00]]>", "&b"},
		{"\x00\x00\x00", "q"},
		{"hello world\x00world hello", "lo w"},
	} {
		f.Add([]byte(s.data), []byte(s.lit))
	}
	f.Fuzz(func(t *testing.T, data, lit []byte) {
		if len(data) > 4096 || len(lit) > 64 || bytes.IndexByte(lit, 0) >= 0 {
			return
		}
		var doc strings.Builder
		doc.WriteString("<r>")
		texts := bytes.Split(data, []byte{0})
		for i := 0; i < len(texts); i += 2 {
			doc.WriteString(`<t a="` + escapeXML(texts[i]) + `">`)
			if i+1 < len(texts) {
				doc.WriteString(escapeXML(texts[i+1]))
			}
			doc.WriteString("</t>")
		}
		doc.WriteString("</r>")
		d, err := xmltree.Parse([]byte(doc.String()), xmltree.Options{SampleRate: 4})
		if err != nil {
			return // bytes the parser rejects are not this test's subject
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		mapped, err := xmltree.ReadIndexMapped(persist.EnsureAligned(buf.Bytes()), xmltree.Options{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*xmltree.Doc{"parsed": d, "mapped": mapped} {
			checkTextScan(t, name, d, lit)
		}
	})
}

// checkTextScan compares the scans over d's plain store with a per-text pass.
func checkTextScan(t *testing.T, name string, d *xmltree.Doc, lit []byte) {
	t.Helper()
	n := d.NumTexts()
	var wantContains, wantEnds []int
	for id := 0; id < n; id++ {
		if bytes.Contains(d.Text(id), lit) {
			wantContains = append(wantContains, id)
		}
		if bytes.HasSuffix(d.Text(id), lit) {
			wantEnds = append(wantEnds, id)
		}
	}
	check := func(what string, set xmltree.TextSet, want []int) {
		t.Helper()
		var got []int
		for id := set.First(0, n); id >= 0; id = set.First(id+1, n) {
			got = append(got, id)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s %s %q: texts %v, per-text pass %v", name, what, lit, got, want)
		}
	}
	for rare := 0; rare < max(1, len(lit)); rare++ {
		set := xmltree.NewTextSet(n)
		d.Plain.Contains(lit, rare, set)
		check(fmt.Sprintf("Contains, prefilter byte %d", rare), set, wantContains)
	}
	set := xmltree.NewTextSet(n)
	d.Plain.EndsWith(lit, set)
	check("EndsWith", set, wantEnds)
	for _, arm := range []struct {
		name string
		opts Options
	}{{"scan", Options{PlainCutoff: 1}}, {"fm", Options{PlainCutoff: math.MaxInt}}} {
		check(arm.name+" contains", matchSet(d, arm.opts, OpContains, "", string(lit)), wantContains)
		check(arm.name+" ends-with", matchSet(d, arm.opts, OpEndsWith, "", string(lit)), wantEnds)
	}
}

// escapeXML writes text as character data or an attribute value: the markup
// bytes become references, every other byte stays.
func escapeXML(text []byte) string {
	var b strings.Builder
	for _, c := range text {
		switch c {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
