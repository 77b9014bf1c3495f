package xmltree

import (
	"testing"

	"repro/internal/gen"
)

// referencePureText recomputes PureText from the built structure alone: a
// label is impure when one of its nodes has a child other than # and @, or
// two or more # children. Labels with no node stay pure.
func referencePureText(d *Doc) []bool {
	pure := make([]bool, d.NumTags())
	for i := range pure {
		pure[i] = true
	}
	for x := 0; x < d.Par.Len(); x++ {
		if !d.Par.IsOpen(x) {
			continue
		}
		texts, others := 0, 0
		for c := d.FirstChild(x); c != Nil; c = d.NextSibling(c) {
			switch d.TagOf(c) {
			case textTag:
				texts++
			case attrsTag:
			default:
				others++
			}
		}
		if others > 0 || texts > 1 {
			pure[d.TagOf(x)] = false
		}
	}
	return pure
}

// checkPureText compares d.PureText with the reference for every label id.
func checkPureText(t *testing.T, name string, d *Doc) {
	t.Helper()
	want := referencePureText(d)
	for id := range want {
		if got := d.PureText(int32(id)); got != want[id] {
			t.Fatalf("%s: PureText(%q) = %v, reference %v", name, d.TagName(int32(id)), got, want[id])
		}
	}
}

// TestPureTextFromParser: the PureText flags the parser derives on its
// open-element stack equal a traversal of the built tree, on the generated
// corpora and on the edge shapes of the rule, both as parsed and after a
// save and a mapped load.
func TestPureTextFromParser(t *testing.T) {
	docs := map[string]string{
		"no text":         `<a><b/><c><d/></c></a>`,
		"no attributes":   `<a>x<b>y</b><c>z</c>w</a>`,
		"only attributes": `<a><b x="1" y="2"/><c z="3">t</c></a>`,
		"empty element":   `<a/>`,
		"two texts":       `<a>x<!--c-->y</a>`,
		"attr like elem":  `<a id="1"><id>x</id></a>`,
	}
	const size = 64 << 10
	for name, data := range map[string][]byte{
		"xmark":    gen.XMark(1, size),
		"medline":  gen.Medline(1, size),
		"treebank": gen.Treebank(1, size),
		"wiki":     gen.Wiki(1, size),
		"bioxml":   gen.BioXML(1, size),
	} {
		docs[name] = string(data)
	}
	for name, xml := range docs {
		d := parse(t, xml, Options{SampleRate: 4})
		checkPureText(t, name, d)
		loaded, err := ReadIndexMapped(saveBytes(t, d), Options{SampleRate: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPureText(t, name+" (loaded)", loaded)
	}

	// The reference agrees with the rule on the shapes that decide it.
	d := parse(t, docs["two texts"], Options{})
	if d.PureText(d.TagID("a")) {
		t.Error("two # children: a should be impure")
	}
	d = parse(t, docs["attr like elem"], Options{})
	if d.PureText(d.TagID("id")) || d.PureText(d.AttrsTag()) || d.PureText(d.RootTag()) {
		t.Error("attribute name, @ and the root should be impure")
	}
	if !d.PureText(d.TextTag()) || !d.PureText(d.AttrValTag()) {
		t.Error("# and % should be pure")
	}
	d = parse(t, docs["no attributes"], Options{})
	if !d.PureText(d.AttrsTag()) || !d.PureText(d.AttrValTag()) {
		t.Error("absent labels should be pure")
	}
	if !d.PureText(d.TagID("b")) || d.PureText(d.TagID("a")) {
		t.Error("b holds one text, a has element children")
	}
}
