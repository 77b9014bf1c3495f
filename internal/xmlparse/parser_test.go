package xmlparse

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recorder collects events as strings for easy comparison.
type recorder struct {
	events []string
}

func (r *recorder) StartElement(name string, attrs []Attr) error {
	var b strings.Builder
	b.WriteString("<" + name)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
	}
	b.WriteByte('>')
	r.events = append(r.events, b.String())
	return nil
}
func (r *recorder) EndElement(name string) error {
	r.events = append(r.events, "</"+name+">")
	return nil
}
func (r *recorder) Text(data []byte) error {
	r.events = append(r.events, "T:"+string(data))
	return nil
}

func parseOK(t *testing.T, doc string) []string {
	t.Helper()
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatalf("parse %q: %v", doc, err)
	}
	return rec.events
}

func expectEvents(t *testing.T, doc string, want ...string) {
	t.Helper()
	got := parseOK(t, doc)
	if len(got) != len(want) {
		t.Fatalf("doc %q events:\n got %v\nwant %v", doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("doc %q event %d: got %q want %q", doc, i, got[i], want[i])
		}
	}
}

func TestSimple(t *testing.T) {
	expectEvents(t, "<a><b>hi</b></a>",
		"<a>", "<b>", "T:hi", "</b>", "</a>")
}

func TestAttributes(t *testing.T) {
	expectEvents(t, `<part name="pen" id='7'/>`,
		`<part name="pen" id="7">`, "</part>")
}

func TestPaperExampleDocument(t *testing.T) {
	doc := `<parts>
<part name="pen">
   <color>blue</color>
   <stock>40</stock>
   Soon discontinued.
</part>
<part name="rubber">
   <stock>30</stock>
</part>
</parts>`
	events := parseOK(t, doc)
	// 7 whitespace texts + the real ones, per the paper's Section 2 remark.
	var texts int
	for _, e := range events {
		if strings.HasPrefix(e, "T:") {
			texts++
		}
	}
	if texts != 11 { // blue, 40, "Soon discontinued." (merged w/ ws), 30 + whitespace runs
		// The exact count depends on text-run merging; just require >= 8.
		if texts < 8 {
			t.Fatalf("expected many text events, got %d: %v", texts, events)
		}
	}
}

func TestEntities(t *testing.T) {
	expectEvents(t, "<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>",
		"<a>", "T:x & y <z> AB", "</a>")
}

func TestEntityInAttribute(t *testing.T) {
	expectEvents(t, `<a t="a&amp;b"/>`, `<a t="a&b">`, "</a>")
}

func TestCDATA(t *testing.T) {
	expectEvents(t, "<a><![CDATA[<not> &parsed;]]></a>",
		"<a>", "T:<not> &parsed;", "</a>")
}

func TestCommentsAndPI(t *testing.T) {
	expectEvents(t, `<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>`,
		"<a>", "<b>", "</b>", "</a>")
}

func TestDoctype(t *testing.T) {
	expectEvents(t, `<!DOCTYPE parts [<!ELEMENT parts (part*)>]><parts/>`,
		"<parts>", "</parts>")
}

func TestWhitespacePreserved(t *testing.T) {
	expectEvents(t, "<a>\n  <b/>\n</a>",
		"<a>", "T:\n  ", "<b>", "</b>", "T:\n", "</a>")
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",                     // no root
		"<a>",                  // unclosed
		"<a></b>",              // mismatch
		"<a></a><b></b>",       // two roots
		"text only",            // no markup
		"<a attr></a>",         // attribute without value
		"<a attr=x></a>",       // unquoted value
		`<a t="v></a>`,         // unterminated value
		"<a>&unknown;</a>",     // unknown entity
		"<a><![CDATA[x</a>",    // unterminated CDATA
		"<!-- only a comment>", // unterminated comment, no root
		"<a>x</a>trailing",     // content after root
		"<a></a><b/>",          // second root
	}
	for _, doc := range bad {
		rec := &recorder{}
		if err := Parse([]byte(doc), rec); err == nil {
			t.Errorf("expected error for %q", doc)
		}
	}
}

func TestErrorOffsetReported(t *testing.T) {
	err := Parse([]byte("<a>&nope;</a>"), &recorder{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want SyntaxError, got %v", err)
	}
	if se.Offset <= 0 {
		t.Fatalf("offset %d", se.Offset)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	orig := `a<b&c>"d'e`
	esc := string(AppendEscape(nil, []byte(orig), true))
	doc := `<x t="` + esc + `">` + string(AppendEscape(nil, []byte(orig), false)) + `</x>`
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatalf("%v (doc=%q)", err, doc)
	}
	if rec.events[0] != fmt.Sprintf("<x t=%q>", orig) {
		t.Fatalf("attr roundtrip: %q", rec.events[0])
	}
	if rec.events[1] != "T:"+orig {
		t.Fatalf("text roundtrip: %q", rec.events[1])
	}
}

func TestDeepNesting(t *testing.T) {
	depth := 5000
	doc := strings.Repeat("<d>", depth) + "x" + strings.Repeat("</d>", depth)
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 2*depth+1 {
		t.Fatalf("events=%d", len(rec.events))
	}
}

func TestUTF8Names(t *testing.T) {
	expectEvents(t, "<日本語>x</日本語>", "<日本語>", "T:x", "</日本語>")
}

// TestLineEnds pins XML 1.0 §2.11: "\r\n" and a lone "\r" reach the handler
// as "\n" in text, attribute values and CDATA, while a "&#13;" reference
// still yields "\r".
func TestLineEnds(t *testing.T) {
	expectEvents(t, "<a t=\"1\r\n2\r3\">x\r\ny\rz&#13;\r\n<![CDATA[p\r\nq\r]]></a>",
		"<a t=\"1\\n2\\n3\">", "T:x\ny\nz\r\n", "T:p\nq\n", "</a>")
}

// TestMarkupInData pins three well-formedness rules: a literal '<' cannot
// occur in an attribute value (XML 1.0 §3.1, AttValue), "]]>" cannot occur
// in character data (§2.4), and no attribute name appears twice in one tag
// (§3.1, Unique Att Spec). Each is a SyntaxError at the offending byte (the
// second name); the escaped forms, and "]]>" closing a CDATA section, parse.
func TestMarkupInData(t *testing.T) {
	for _, c := range []struct {
		doc    string
		offset int
	}{
		{`<a t="x<y"/>`, 7},
		{`<a t='<'/>`, 6},
		{`<a u="1" t="a&lt;<"></a>`, 17},
		{`<a>x]]>y</a>`, 4},
		{`<a>]]></a>`, 3},
		{"<a>\n]]]>\n</a>", 5},
		{`<a><b/>]]></a>`, 7},
		{`<a x="1" x="2"/>`, 9},
		{`<a a="" b="" c="" d="" e="" f="" g="" h="" i="" c=""/>`, 48}, // past 8 names
	} {
		var se *SyntaxError
		if err := Parse([]byte(c.doc), &recorder{}); !errors.As(err, &se) {
			t.Errorf("%q: err = %v, want a SyntaxError", c.doc, err)
		} else if se.Offset != c.offset {
			t.Errorf("%q: error at offset %d, want %d (%v)", c.doc, se.Offset, c.offset, err)
		}
	}
	expectEvents(t, `<a t="x&lt;y" u='>'>]]&gt; ]] &gt; ]>]<![CDATA[]]]]><![CDATA[>]]></a>`,
		`<a t="x<y" u=">">`, "T:]]> ]] > ]>]", "T:]]", "T:>", "</a>")
	expectEvents(t, `<a a="" b="" c="" d="" e="" f="" g="" h="" i="" j=""/>`,
		`<a a="" b="" c="" d="" e="" f="" g="" h="" i="" j="">`, "</a>")
}

// TestCharReferenceNotChar: a character reference must name an XML Char
// (tab, LF, CR, U+0020–U+D7FF, U+E000–U+FFFD, U+10000–U+10FFFF).
func TestCharReferenceNotChar(t *testing.T) {
	for _, ref := range []string{"&#0;", "&#x1;", "&#8;", "&#x1F;", "&#xD800;", "&#xDFFF;", "&#xFFFE;", "&#xFFFF;", "&#x110000;", "&#-9;"} {
		for _, doc := range []string{"<a>x" + ref + "y</a>", `<a t="` + ref + `"/>`} {
			var se *SyntaxError
			if err := Parse([]byte(doc), &recorder{}); !errors.As(err, &se) {
				t.Errorf("%q: err = %v, want a SyntaxError", doc, err)
			}
		}
	}
	expectEvents(t, "<a>&#9;&#10;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>",
		"<a>", "T:\t\n\r \uD7FF\uE000\uFFFD\U00010000\U0010FFFF", "</a>")
}

func TestEscapeCR(t *testing.T) {
	for _, attr := range []bool{false, true} {
		if got := string(AppendEscape(nil, []byte("a\r\nb"), attr)); got != "a&#13;\nb" {
			t.Errorf("attr=%v: %q", attr, got)
		}
	}
}

// nopHandler drops every event.
type nopHandler struct{}

func (nopHandler) StartElement(string, []Attr) error { return nil }
func (nopHandler) EndElement(string) error           { return nil }
func (nopHandler) Text([]byte) error                 { return nil }

// TestMarkupScanLinear: finding the end of a comment, CDATA section or PI
// searches the document in place, so a document made of many of them
// parses with allocation proportional to its size, not to its size times
// their number.
func TestMarkupScanLinear(t *testing.T) {
	for _, unit := range []string{
		"<a>x</a><!-- c -->", "<a>x</a><![CDATA[c]]>", "<a>x</a><?pi c?>",
	} {
		doc := []byte("<r>" + strings.Repeat(unit, 20_000) + "</r>")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Parse(doc, nopHandler{}); err != nil {
			t.Fatalf("%q: %v", unit, err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(doc)) {
			t.Errorf("%q × 20,000 (%d bytes) allocated %d bytes, want at most 4× the input", unit, len(doc), alloc)
		}
	}
}
