package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

// chunkWriter records the size of every Write it receives.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestSubtreeSerialization pins GetSubtree's output, case by case, on
// parsed, loaded and SkipPlain (texts from the FM-index) documents.
func TestSubtreeSerialization(t *testing.T) {
	var big strings.Builder
	big.WriteString("<r>")
	for i := 0; big.Len() < 3*chunkSize; i++ {
		big.WriteString(`<item id="i&quot;` + strings.Repeat("x", i%7) + `">text &amp; more<b/></item>`)
	}
	big.WriteString("</r>")

	root := func(d *Doc) int { return d.Root() }
	first := func(name string) func(d *Doc) int {
		return func(d *Doc) int { return d.TaggedDesc(d.Root(), d.TagID(name)) }
	}
	const attrDoc = `<a k="x&amp;y" m="2">t&lt;</a>`
	cases := []struct {
		name, doc string
		node      func(d *Doc) int
		want      string
	}{
		{"entities", `<a k="&amp;&lt;&gt;&quot;&apos;">&amp;&lt;&gt;"'</a>`, root,
			`<a k="&amp;&lt;&gt;&quot;&apos;">&amp;&lt;&gt;"'</a>`},
		{"root", `<r><b k="v"/><e></e></r>`, root, `<r><b k="v"/><e/></r>`},
		{"attributes only", `<r><b k="v" l=""/><e></e></r>`, first("b"), `<b k="v" l=""/>`},
		{"empty element", `<r><b k="v"/><e></e></r>`, first("e"), `<e/>`},
		{"mixed content", `<r><p>one<i>two</i>three</p></r>`, first("p"), `<p>one<i>two</i>three</p>`},
		{"attribute name", attrDoc, first("k"), `<k>x&amp;y</k>`},
		{"attribute container", attrDoc, func(d *Doc) int { return d.FirstChild(first("a")(d)) }, ``},
		{"attribute value", attrDoc, func(d *Doc) int { return d.FirstChild(first("m")(d)) }, `2`},
		{"text", attrDoc, func(d *Doc) int { return d.TaggedDesc(d.Root(), textTag) }, `t&lt;`},
		{"larger than a chunk", big.String(), root, big.String()},
	}
	loads := []struct {
		name string
		load func(t *testing.T, doc string) *Doc
	}{
		{"parsed", func(t *testing.T, doc string) *Doc { return parse(t, doc, Options{SampleRate: 4}) }},
		{"loaded", func(t *testing.T, doc string) *Doc {
			d, err := ReadIndexMapped(saveBytes(t, parse(t, doc, Options{SampleRate: 4})), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"skipplain", func(t *testing.T, doc string) *Doc {
			d, err := ReadIndexMapped(saveBytes(t, parse(t, doc, Options{SampleRate: 4})), Options{SkipPlain: true})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
	for _, l := range loads {
		for _, c := range cases {
			d := l.load(t, c.doc)
			var w chunkWriter
			if err := d.GetSubtree(c.node(d), &w); err != nil {
				t.Fatal(err)
			}
			if got := w.String(); got != c.want {
				t.Errorf("%s/%s: got\n%.200s\nwant\n%.200s", l.name, c.name, got, c.want)
			}
			for i, n := range w.writes {
				if n == 0 || i < len(w.writes)-1 && n < chunkSize {
					t.Errorf("%s/%s: write %d of %d has %d bytes", l.name, c.name, i, len(w.writes), n)
				}
			}
			if len(c.want) > chunkSize && len(w.writes) < 2 {
				t.Errorf("%s/%s: %d bytes in %d writes", l.name, c.name, len(c.want), len(w.writes))
			}
		}
	}
}
