package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

const paperDoc = `<parts><part name="pen"><color>blue</color><stock>40</stock>Soon discontinued.</part><part name="rubber"><stock>30</stock></part></parts>`

func parse(t *testing.T, doc string, opts Options) *Doc {
	t.Helper()
	d, err := Parse([]byte(doc), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPaperModelShape(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	// Model: & > parts > part(> @ > name > %; color > #; stock > #; #text),
	//                     part(> @ > name > %; stock > #)
	// Count nodes: & parts part @ name % color # stock # # part @ name % stock #
	if d.NumNodes() != 17 {
		t.Fatalf("nodes=%d want 17", d.NumNodes())
	}
	if d.NumTexts() != 6 {
		t.Fatalf("texts=%d want 6", d.NumTexts())
	}
	root := d.Root()
	if d.TagName(d.TagOf(root)) != RootLabel {
		t.Fatal("root label")
	}
	parts := d.FirstChild(root)
	if d.TagName(d.TagOf(parts)) != "parts" {
		t.Fatalf("first child = %s", d.TagName(d.TagOf(parts)))
	}
	part1 := d.FirstChild(parts)
	if d.TagName(d.TagOf(part1)) != "part" {
		t.Fatal("part1")
	}
	at := d.FirstChild(part1)
	if d.TagOf(at) != d.AttrsTag() {
		t.Fatal("@ node must be first child of attributed element")
	}
	nameNode := d.FirstChild(at)
	if d.TagName(d.TagOf(nameNode)) != "name" {
		t.Fatal("attr name node")
	}
	val := d.FirstChild(nameNode)
	if d.TagOf(val) != d.AttrValTag() {
		t.Fatal("% node")
	}
	if got := string(d.Text(d.NodeToTextID(val))); got != "pen" {
		t.Fatalf("attr text=%q", got)
	}
	// texts in document order: pen, blue, 40, Soon discontinued., rubber, 30
	want := []string{"pen", "blue", "40", "Soon discontinued.", "rubber", "30"}
	for i, w := range want {
		if got := string(d.Text(i)); got != w {
			t.Fatalf("text %d = %q want %q", i, got, w)
		}
	}
}

func TestTaggedOps(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	stock := d.TagID("stock")
	part := d.TagID("part")
	root := d.Root()
	if d.SubtreeTags(root, stock) != 2 {
		t.Fatalf("SubtreeTags(stock)=%d", d.SubtreeTags(root, stock))
	}
	if d.SubtreeTags(root, part) != 2 {
		t.Fatal("SubtreeTags(part)")
	}
	// TaggedDesc finds the first stock (inside part1).
	s1 := d.TaggedDesc(root, stock)
	if s1 == Nil || d.TagOf(s1) != stock {
		t.Fatal("TaggedDesc stock")
	}
	// TaggedFoll from first stock finds the second.
	s2 := d.TaggedFoll(s1, stock)
	if s2 == Nil || s2 <= s1 || d.TagOf(s2) != stock {
		t.Fatal("TaggedFoll stock")
	}
	if d.TaggedFoll(s2, stock) != Nil {
		t.Fatal("no third stock")
	}
	// SubtreeTags of part1 counts only its own stock.
	part1 := d.FirstChild(d.FirstChild(root))
	if d.SubtreeTags(part1, stock) != 1 {
		t.Fatal("SubtreeTags part1 stock")
	}
	// TaggedPrec from second part's stock skipping ancestors.
	color := d.TagID("color")
	if p := d.TaggedPrec(s2, color); p == Nil || d.TagOf(p) != color {
		t.Fatal("TaggedPrec color")
	}
}

func TestTextIDRange(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	root := d.Root()
	lo, hi := d.TextIDs(root)
	if lo != 0 || hi != 6 {
		t.Fatalf("root text range [%d,%d)", lo, hi)
	}
	part1 := d.FirstChild(d.FirstChild(root))
	lo, hi = d.TextIDs(part1)
	if lo != 0 || hi != 4 {
		t.Fatalf("part1 text range [%d,%d)", lo, hi)
	}
	part2 := d.NextSibling(part1)
	lo, hi = d.TextIDs(part2)
	if lo != 4 || hi != 6 {
		t.Fatalf("part2 text range [%d,%d)", lo, hi)
	}
	for id := 0; id < 6; id++ {
		node := d.TextIDToNode(id)
		if d.NodeToTextID(node) != id {
			t.Fatalf("roundtrip text id %d", id)
		}
	}
}

func TestTextValue(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	part1 := d.FirstChild(d.FirstChild(d.Root()))
	// string-value excludes the attribute value "pen"
	if got := string(d.TextValue(part1)); got != "blue40Soon discontinued." {
		t.Fatalf("TextValue(part1)=%q", got)
	}
	color := d.TaggedDesc(d.Root(), d.TagID("color"))
	if got := string(d.TextValue(color)); got != "blue" {
		t.Fatalf("TextValue(color)=%q", got)
	}
}

func TestPureText(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	if !d.PureText(d.TagID("color")) || !d.PureText(d.TagID("stock")) {
		t.Fatal("color/stock should be pure text")
	}
	if d.PureText(d.TagID("part")) {
		t.Fatal("part has mixed content")
	}
	// parts has element children only
	if d.PureText(d.TagID("parts")) {
		t.Fatal("parts has element children")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		paperDoc,
		`<a/>`,
		`<a>text</a>`,
		`<a x="1" y="2"><b/>mid<c>deep</c></a>`,
		`<r><e>&amp;&lt;&gt;</e></r>`,
	}
	for _, doc := range docs {
		d := parse(t, doc, Options{SkipFM: true})
		var buf bytes.Buffer
		if err := d.GetSubtree(d.Root(), &buf); err != nil {
			t.Fatal(err)
		}
		// Reparse the output; it must produce an identical model.
		d2 := parse(t, buf.String(), Options{SkipFM: true})
		var buf2 bytes.Buffer
		if err := d2.GetSubtree(d2.Root(), &buf2); err != nil {
			t.Fatal(err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("not a fixed point:\n1: %s\n2: %s", buf.String(), buf2.String())
		}
	}
}

func TestFMExtractionMatchesPlain(t *testing.T) {
	d := parse(t, paperDoc, Options{})
	for id := 0; id < d.NumTexts(); id++ {
		if got, want := string(d.FM.Extract(id)), string(d.Plain.Get(id)); got != want {
			t.Fatalf("text %d: fm=%q plain=%q", id, got, want)
		}
	}
}

func TestSkipPlainUsesFM(t *testing.T) {
	d := parse(t, paperDoc, Options{SkipPlain: true})
	if d.Plain != nil {
		t.Fatal("plain should be nil")
	}
	if got := string(d.Text(1)); got != "blue" {
		t.Fatalf("Text(1)=%q", got)
	}
}

func TestWhitespaceTextsBecomeLeaves(t *testing.T) {
	// Paper Section 2: indentation produces extra # leaves.
	doc := "<parts>\n<part/>\n</parts>"
	d := parse(t, doc, Options{SkipFM: true})
	// & parts # part # => 5 nodes, 2 texts
	if d.NumNodes() != 5 {
		t.Fatalf("nodes=%d", d.NumNodes())
	}
	if d.NumTexts() != 2 {
		t.Fatalf("texts=%d", d.NumTexts())
	}
}

func TestEmptyElementNoTextLeaf(t *testing.T) {
	// <a></a> is stored as a single a-labeled leaf under & (Section 2).
	d := parse(t, "<a></a>", Options{SkipFM: true})
	if d.NumNodes() != 2 {
		t.Fatalf("nodes=%d", d.NumNodes())
	}
	a := d.FirstChild(d.Root())
	if !d.IsLeaf(a) {
		t.Fatal("a should be a leaf")
	}
}

func TestBigDocumentNavigation(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1000; i++ {
		sb.WriteString("<item><k>v</k></item>")
	}
	sb.WriteString("</root>")
	d := parse(t, sb.String(), Options{SkipFM: true})
	item := d.TagID("item")
	if d.TagCount(item) != 1000 {
		t.Fatalf("item count=%d", d.TagCount(item))
	}
	// Walk all items via TaggedDesc + TaggedFoll.
	count := 0
	for x := d.TaggedDesc(d.Root(), item); x != Nil; x = d.TaggedFoll(x, item) {
		count++
	}
	if count != 1000 {
		t.Fatalf("jump walk count=%d", count)
	}
}
