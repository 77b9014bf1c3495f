package xpath

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
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

// TestSpanCandidatesOnce pins the bottom-up climb over occurrence spans:
// forEachSpanCandidate must emit exactly the nodes that the top-down span
// test accepts (attribute-value leaves aside, which the plan never reaches),
// each once, on random mixed-content documents where consecutive spans
// share ancestors and attribute values sit between texts.
func TestSpanCandidatesOnce(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 200; n++ {
		var b strings.Builder
		text := func() {
			for k := r.IntN(3); k >= 0; k-- {
				b.WriteByte("ab"[r.IntN(2)])
			}
		}
		var elem func(depth int)
		elem = func(depth int) {
			b.WriteString("<e")
			if r.IntN(3) == 0 {
				b.WriteString(` k="`)
				text()
				b.WriteString(`"`)
			}
			b.WriteString(">")
			for k := r.IntN(4); k > 0; k-- {
				if depth < 4 && r.IntN(2) == 0 {
					elem(depth + 1)
				} else {
					text()
				}
			}
			b.WriteString("</e>")
		}
		elem(0)
		d, err := xmltree.Parse([]byte(b.String()), xmltree.Options{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range []string{"a", "ab", "ba", "aba", "bab", "abba"} {
			tab := (&spanTable{doc: d, lit: []byte(lit)}).get()
			v := newUpVerifier(context.Background(), d, nil)
			emitted := map[int]int{}
			tab.forEachSpanCandidate(&v, func(x int) bool { emitted[x]++; return true })
			for k := 0; k < d.NumNodes(); k++ {
				x, want := d.NodeAtPreorder(k), 0
				if d.TagOf(x) != d.AttrValTag() && tab.contains(x) {
					want = 1
				}
				if emitted[x] != want {
					t.Fatalf("%s %q: node %d emitted %d times, want %d", b.String(), lit, x, emitted[x], want)
				}
			}
		}
	}
}

// FuzzTextScan checks the plain-store scans against a per-text pass. The
// input's 0 bytes cut data into texts, which become attribute values (the
// only texts that can be empty) and element texts by turns; lit is the
// literal. TextStore.Contains, with every byte of the literal as the
// prefilter byte, and TextStore.EndsWith must find exactly the texts that
// bytes.Contains and bytes.HasSuffix accept, and so must matchSet with the
// scan forced and with the FM-index forced, on the parsed document and on
// its saved-then-mapped copy. TextStore.Occurrences with the element texts
// joined must report, for every prefilter byte, exactly the occurrences of
// a search of their concatenation and of each attribute value on its own,
// in the order of the prefilter byte.
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
		{"x\x00ab\x00zz\x00cd", "bc"},           // joins two element texts across an attribute value
		{"x\x00ab\x00\x00cd", "bc"},             // across an empty attribute value
		{"x\x00ab\x00q\x00c\x00q\x00de", "bcd"}, // across three element texts
		{"x\x00ab\x00bc\x00d", "bc"},            // inside an attribute value, not across it
		{"ab\x00a\x00ab\x00b\x00b", "abab"},
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
	if len(lit) > 0 {
		hits, textOf := occurrencesRef(d, lit)
		join := elementTexts(d)
		for rare := range lit {
			slices.SortFunc(hits, func(a, b []int) int { return a[rare] - b[rare] })
			var got, want [][2]int
			for _, h := range hits {
				want = append(want, [2]int{textOf[h[0]], textOf[h[len(h)-1]]})
			}
			d.Plain.Occurrences(lit, rare, join, func(first, last int) bool {
				got = append(got, [2]int{first, last})
				return true
			})
			if !slices.Equal(got, want) {
				t.Errorf("%s Occurrences %q, prefilter byte %d: %v, reference %v", name, lit, rare, got, want)
			}
		}
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

// occurrencesRef is the reference of TextStore.Occurrences with d's element
// texts joined: bytes.Index at every offset of their concatenation, and of
// each attribute value on its own. Each hit is the blob offsets of its
// bytes; textOf maps a blob offset to its text id.
func occurrencesRef(d *xmltree.Doc, lit []byte) (hits [][]int, textOf []int) {
	var concat []byte
	var at []int // the blob offset of each byte of concat
	search := func(s []byte, pos func(k int) int) {
		for k := 0; ; k++ {
			j := bytes.Index(s[k:], lit)
			if j < 0 {
				return
			}
			k += j
			h := make([]int, len(lit))
			for i := range h {
				h[i] = pos(k + i)
			}
			hits = append(hits, h)
		}
	}
	for id := 0; id < d.NumTexts(); id++ {
		text, start := d.Text(id), len(textOf)
		for range text {
			textOf = append(textOf, id)
		}
		if d.TagOf(d.TextIDToNode(id)) != d.TextTag() {
			search(text, func(k int) int { return start + k })
			continue
		}
		concat = append(concat, text...)
		for k := range text {
			at = append(at, start+k)
		}
	}
	search(concat, func(k int) int { return at[k] })
	return hits, textOf
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
