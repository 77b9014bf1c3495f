package xpath_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
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
