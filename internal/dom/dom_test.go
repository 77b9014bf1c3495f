package dom

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/xmlparse"
)

const doc = `<parts><part name="pen"><color>blue</color><stock>40</stock>End.</part><part><stock>30</stock></part></parts>`

func TestParseShape(t *testing.T) {
	tr, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Tag != "&" {
		t.Fatal("synthetic root")
	}
	if tr.NumTexts != 5 {
		t.Fatalf("texts=%d", tr.NumTexts)
	}
	parts := tr.Root.FirstChild
	if parts.Tag != "parts" {
		t.Fatal("root element")
	}
	part := parts.FirstChild
	if part.FirstChild.Tag != "@" {
		t.Fatal("attribute container")
	}
}

func TestValueSemantics(t *testing.T) {
	tr, _ := Parse([]byte(doc))
	part := tr.Root.FirstChild.FirstChild
	// string value excludes attribute text
	if got := string(part.Value()); got != "blue40End." {
		t.Fatalf("value=%q", got)
	}
	attr := part.FirstChild.FirstChild // @ -> name
	if got := string(attr.Value()); got != "pen" {
		t.Fatalf("attr value=%q", got)
	}
}

func TestEvalBasics(t *testing.T) {
	tr, _ := Parse([]byte(doc))
	cases := []struct {
		q string
		n int
	}{
		{"//part", 2},
		{"//part[color]", 1},
		{"//part[@name]", 1},
		{"//part[not(color)]", 1},
		{"//stock[. = '30']", 1},
		{"//part[contains(., 'End')]", 1},
		{"//color/following-sibling::stock", 1},
		{"//text()", 4}, // the attribute value is a % leaf, not text()
	}
	for _, c := range cases {
		got, err := tr.Count(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got != c.n {
			t.Fatalf("%s: got %d want %d", c.q, got, c.n)
		}
	}
}

func TestEvalDocOrderAndDedup(t *testing.T) {
	tr, _ := Parse([]byte("<r><a><b/><b/></a><a><b/></a></r>"))
	ns, err := tr.Eval("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 {
		t.Fatalf("len=%d", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Order <= ns[i-1].Order {
			t.Fatal("not in document order")
		}
	}
}

func TestSerialize(t *testing.T) {
	tr, _ := Parse([]byte(doc))
	var buf bytes.Buffer
	tr.Root.Serialize(&buf)
	tr2, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("reserialized doc does not parse: %v\n%s", err, buf.String())
	}
	if tr2.NumNodes != tr.NumNodes {
		t.Fatalf("nodes %d != %d", tr2.NumNodes, tr.NumNodes)
	}
}

// TestXMLLineEndsAndCharRefs is core's test of the same name on the DOM.
func TestXMLLineEndsAndCharRefs(t *testing.T) {
	tr, err := Parse([]byte("<r><a>x\r\ny</a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//a[. = 'x\ny']", "//a[contains(., 'x\ny')]"} {
		if n, err := tr.Count(q); err != nil || n != 1 {
			t.Errorf("%q: count %d, err %v; want 1", q, n, err)
		}
	}
	var buf bytes.Buffer
	tr.Root.Serialize(&buf)
	if buf.String() != "<r><a>x\ny</a></r>" {
		t.Errorf("serialized %q", buf.String())
	}
	var se *xmlparse.SyntaxError
	if _, err := Parse([]byte("<a>x&#0;y</a>")); !errors.As(err, &se) {
		t.Errorf("&#0;: err = %v, want a SyntaxError", err)
	}
}
