package xpath_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/xmltree"
	. "repro/internal/xpath"
)

func medlineDoc(t *testing.T, size, rate int, skipPlain bool) *xmltree.Doc {
	t.Helper()
	d, err := xmltree.Parse(gen.Medline(3, size), xmltree.Options{SampleRate: rate, SkipPlain: skipPlain})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestScanThresholdRule pins the shape of the match-set cost rule: the
// occurrence count above which the plain store is scanned grows with the
// document and shrinks as the locate sampling step l grows; a document
// without a plain store never scans; an explicit PlainCutoff replaces it.
func TestScanThresholdRule(t *testing.T) {
	small := ScanThreshold(medlineDoc(t, 100_000, 64, false), Options{})
	large := ScanThreshold(medlineDoc(t, 400_000, 64, false), Options{})
	if small <= 0 || large <= small {
		t.Errorf("threshold must grow with size: 100 KB %d, 400 KB %d", small, large)
	}
	prev := math.MaxInt
	for _, rate := range []int{4, 16, 64, 256} {
		th := ScanThreshold(medlineDoc(t, 100_000, rate, false), Options{})
		if th >= prev {
			t.Errorf("l=%d: threshold %d not below %d of the smaller l", rate, th, prev)
		}
		prev = th
	}

	d := medlineDoc(t, 100_000, 64, false)
	if got := ScanThreshold(d, Options{PlainCutoff: 7}); got != 7 {
		t.Errorf("PlainCutoff 7: threshold %d", got)
	}
	noPlain := medlineDoc(t, 100_000, 64, true)
	for _, opts := range []Options{{}, {PlainCutoff: 1}} {
		if got := ScanThreshold(noPlain, opts); got != math.MaxInt {
			t.Errorf("SkipPlain %+v: threshold %d, want the FM arm always", opts, got)
		}
	}
	// A literal frequent enough for the rule to scan still gets the FM answer
	// on a document without a plain store.
	lit := "the"
	if g := d.FM.GlobalCount([]byte(lit)); g <= ScanThreshold(d, Options{}) {
		t.Fatalf("%q occurs %d times, not above the threshold", lit, g)
	}
	want := naiveMatches(d, OpContains, lit)
	if got := MatchSet(noPlain, Options{}, OpContains, "", lit); !slices.Equal(got, want) {
		t.Errorf("SkipPlain contains %q: %d ids, want %d", lit, len(got), len(want))
	}
}

// TestMatchSetArmsAgree evaluates every text-predicate literal of the
// Medline suite (M01-M11) through the locate arm and the scan arm and
// requires identical id slices, equal to a naive pass over the texts.
func TestMatchSetArmsAgree(t *testing.T) {
	d := medlineDoc(t, 300_000, 16, false)
	fmOnly := Options{PlainCutoff: math.MaxInt}
	scan := Options{PlainCutoff: 1}
	n := 0
	for _, q := range bench.MedlineQueries {
		ast, err := ParseQuery(q.Query)
		if err != nil {
			t.Fatal(q.ID, err)
		}
		for _, te := range textExprs(ast) {
			n++
			want := naiveMatches(d, te.Op, te.Literal)
			a := MatchSet(d, fmOnly, te.Op, te.Func, te.Literal)
			b := MatchSet(d, scan, te.Op, te.Func, te.Literal)
			if !slices.Equal(a, want) || !slices.Equal(b, want) {
				t.Errorf("%s %v %q: fm %d ids, scan %d ids, naive %d", q.ID, te.Op, te.Literal, len(a), len(b), len(want))
			}
		}
	}
	if n < 11 {
		t.Fatalf("only %d literals found in the M suite", n)
	}
}

func naiveMatches(d *xmltree.Doc, op TextOp, lit string) []int32 {
	match := map[TextOp]func(s, p []byte) bool{
		OpContains:   bytes.Contains,
		OpStartsWith: bytes.HasPrefix,
		OpEndsWith:   bytes.HasSuffix,
		OpEquals:     bytes.Equal,
	}[op]
	var out []int32
	for id := 0; id < d.FM.NumTexts(); id++ {
		if match(d.FM.Extract(id), []byte(lit)) {
			out = append(out, int32(id))
		}
	}
	return out
}

// textExprs collects the text predicates of a parsed query.
func textExprs(p *Path) []*TextExpr {
	var out []*TextExpr
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *AndExpr:
			walk(x.L)
			walk(x.R)
		case *OrExpr:
			walk(x.L)
			walk(x.R)
		case *NotExpr:
			walk(x.E)
		case *PathExpr:
			out = append(out, textExprs(x.Path)...)
		case *TextExpr:
			out = append(out, x)
			if x.Target != nil {
				out = append(out, textExprs(x.Target)...)
			}
		}
	}
	for _, st := range p.Steps {
		for _, f := range st.Filters {
			walk(f)
		}
	}
	return out
}

// predConfigs are the evaluator configurations the predicate rows run
// under: both strategies forced and the cost model's choice, each with and
// without the plain store, plus the naive string-value axis.
func predConfigs() []struct {
	name      string
	skipPlain bool
	opts      Options
} {
	var out []struct {
		name      string
		skipPlain bool
		opts      Options
	}
	for _, skip := range []bool{false, true} {
		for _, s := range []Strategy{StrategyAuto, StrategyTopDown, StrategyBottomUp} {
			out = append(out, struct {
				name      string
				skipPlain bool
				opts      Options
			}{fmt.Sprintf("%s/skipPlain=%v", s, skip), skip, Options{ForceStrategy: s}})
		}
		out = append(out, struct {
			name      string
			skipPlain bool
			opts      Options
		}{fmt.Sprintf("naive/skipPlain=%v", skip), skip, Options{ForceNaiveText: true}})
	}
	return out
}

// checkPredRows counts each query under every predConfigs configuration
// and requires the DOM's count, and the count given in the row.
func checkPredRows(t *testing.T, doc string, rows []struct {
	q    string
	want int
}) {
	t.Helper()
	tree, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range predConfigs() {
		d, err := xmltree.Parse([]byte(doc), xmltree.Options{SampleRate: 4, SkipPlain: cfg.skipPlain})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			want, err := tree.Count(r.q)
			if err != nil {
				t.Fatal(r.q, err)
			}
			if want != r.want {
				t.Fatalf("%s: DOM counts %d, row says %d", r.q, want, r.want)
			}
			q, err := Compile(r.q, d, cfg.opts)
			if err != nil {
				t.Fatal(r.q, err)
			}
			n, _ := q.CountCtx(context.Background())
			nodes, _ := q.NodesCtx(context.Background())
			if n != int64(want) || len(nodes) != want {
				t.Errorf("%s %s: count %d, %d nodes, DOM %d (plan %s)", cfg.name, r.q, n, len(nodes), want, q.Strategy())
			}
			if ok, err := q.Exists(context.Background()); err != nil || ok != (want > 0) {
				t.Errorf("%s %s: exists %v (%v), DOM count %d", cfg.name, r.q, ok, err, want)
			}
		}
	}
}

// TestEmptyLiteral pins the empty literal on every path: "" is a prefix,
// suffix and substring of every string value, also of an empty element's,
// which has no text for a match set to hit, and = "" holds exactly at the
// nodes whose string value is empty.
func TestEmptyLiteral(t *testing.T) {
	checkPredRows(t, `<r><c>abc</c><c/></r>`, []struct {
		q    string
		want int
	}{
		{`//c[contains(., "")]`, 2},
		{`//c[starts-with(., "")]`, 2},
		{`//c[ends-with(., "")]`, 2},
		{`//c[. = ""]`, 1},
		{`//c[. = "abc"]`, 1},
		{`//r[c = ""]`, 1},
		{`//*[contains(., "")]`, 3},
		{`//*[. = ""]`, 1},
		{`//text()[. = ""]`, 0},
	})
	checkPredRows(t, `<r><c a="">x</c><c a="y"/><d/></r>`, []struct {
		q    string
		want int
	}{
		{`//c/@a[. = ""]`, 1},
		{`//c[@a = ""]`, 1},
		{`//c/@a[starts-with(., "")]`, 2},
		{`//d[. = ""]`, 1},
		{`//c[. = ""]`, 1},
	})
}

// TestCustomMatchSetOnce pins that a compiled query builds one match set
// per text predicate, whichever entry point evaluates it: the custom set of
// //a[f(., 'x')] and //*[f(., 'x')] (targets that hold several texts, so
// no bottom-up plan) is computed once across CountCtx, NodesCtx, a drained
// Iter and Exists, and Strategy reports the set-based arm as fm.
func TestCustomMatchSetOnce(t *testing.T) {
	d, err := xmltree.Parse([]byte(`<r><a>x<b>y</b></a><a>z</a><c>x</c></r>`), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src  string
		want int
	}{
		{`//a[f(., "x")]`, 1},
		{`//*[f(., "x")]`, 3},
	} {
		calls := 0
		q, err := Compile(c.src, d, Options{CustomMatchSets: map[string]func(string) []int32{
			"f": func(string) []int32 { calls++; return []int32{0, 3} }, // the two "x" texts
		}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		n, err := q.CountCtx(ctx)
		if err != nil || n != int64(c.want) {
			t.Fatalf("%s: CountCtx = %d, %v; want %d", c.src, n, err, c.want)
		}
		nodes, err := q.NodesCtx(ctx)
		if err != nil || len(nodes) != c.want {
			t.Fatalf("%s: NodesCtx = %v, %v", c.src, nodes, err)
		}
		it := q.Iter(ctx)
		var streamed []int
		for x, ok := it.Next(); ok; x, ok = it.Next() {
			streamed = append(streamed, x)
		}
		if err := it.Err(); err != nil || !slices.Equal(streamed, nodes) {
			t.Fatalf("%s: Iter = %v, %v; NodesCtx %v", c.src, streamed, err, nodes)
		}
		if ok, err := q.Exists(ctx); err != nil || !ok {
			t.Fatalf("%s: Exists = %v, %v", c.src, ok, err)
		}
		if calls != 1 {
			t.Errorf("%s: the custom set was computed %d times, want 1", c.src, calls)
		}
		if s := q.Strategy(); s != "top-down,fm" {
			t.Errorf("%s: Strategy = %q, want top-down,fm", c.src, s)
		}
	}
}

// TestContainsSpans pins contains(., p) on multi-text targets, which runs
// on occurrence spans: a pattern inside one text, across two and three
// texts and across one text per byte; the join of the texts on either side
// of an attribute value (which the string value skips) matches, and a text
// joined with an attribute value does not; patterns at the first and last
// text; and attribute nodes, whose value is their own text.
func TestContainsSpans(t *testing.T) {
	checkPredRows(t, `<r>ab<p>cd<b k="zz">ef</b>gh</p><p>x<i>y</i>z<u/>w</p><q k="kv">k</q>end</r>`, []struct {
		q    string
		want int
	}{
		{`//p[contains(., "cd")]`, 1},
		{`//p[contains(., "dxfg")]`, 0},
		{`//p[contains(., "def")]`, 1},
		{`//*[contains(., "cdefgh")]`, 2},
		{`//*[contains(., "xyzw")]`, 2},
		{`//node()[contains(., "yz")]`, 2},
		{`//*[contains(., "dzz")]`, 0},
		{`//*[contains(., "zze")]`, 0},
		{`//*[contains(., "abc")]`, 1},
		{`//*[contains(., "kend")]`, 1},
		{`//node()[contains(., "en")]`, 2},
		{`//*/*[contains(., "hx")]`, 0},
		{`//*[contains(., "hx")]`, 1},
		{`//q/@k[contains(., "kv")]`, 1},
		{`//q/@*[contains(., "v")]`, 1},
		{`//r[contains(p, "gh")]`, 1},
		{`//*[contains(., "qq")]`, 0},
	})
	// Attribute names are nodes below @ that //*, //node() and name tests
	// reach; an attribute's string value is its own value.
	checkPredRows(t, `<r k="abc" j="k"><k>x</k><j k="ab"><k j="ab"/>ab</j></r>`, []struct {
		q    string
		want int
	}{
		{`//k[contains(., "ab")]`, 2},
		{`//j[contains(., "ab")]`, 2},
		{`//node()[contains(., "ab")]`, 6},
		{`//*[contains(., "ab")]`, 5},
		{`//*/node()[contains(., "ab")]`, 2},
		{`//*[contains(., "bc")]`, 1},
		{`//*[contains(., "kx")]`, 0},
	})
}

// TestSpanTableConcurrent evaluates one compiled span query, and one
// match-set query, from several goroutines before its table or set exists,
// under both strategies: the first evaluations race to build the shared
// table or set, which the bottom-up plan's counts and the streaming
// iterator's predicate read alike, and every count and drained Iter must
// find the sequential result. Run with -race.
func TestSpanTableConcurrent(t *testing.T) {
	d := medlineDoc(t, 100_000, 16, false)
	for _, src := range []string{`//*[contains(., "\n199")]`, `//AbstractText[contains(., "the")]`} {
		for _, s := range []Strategy{StrategyTopDown, StrategyBottomUp} {
			want, err := Compile(src, d, Options{ForceStrategy: s})
			if err != nil {
				t.Fatal(err)
			}
			n, _ := want.CountCtx(context.Background())
			if n == 0 {
				t.Fatalf("%s matches nothing", src)
			}
			q, err := Compile(src, d, Options{ForceStrategy: s})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var got int64
					if g%2 == 0 {
						got, _ = q.CountCtx(context.Background())
					} else {
						it := q.Iter(context.Background())
						for _, ok := it.Next(); ok; _, ok = it.Next() {
							got++
						}
					}
					if got != n {
						t.Errorf("%s %s: concurrent count %d, sequential %d", s, src, got, n)
					}
				}()
			}
			wg.Wait()
		}
	}
}
