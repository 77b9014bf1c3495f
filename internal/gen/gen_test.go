package gen

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

func checkParses(t *testing.T, name string, data []byte) *xmltree.Doc {
	t.Helper()
	d, err := xmltree.Parse(data, xmltree.Options{SkipFM: true})
	if err != nil {
		t.Fatalf("%s does not parse: %v", name, err)
	}
	return d
}

func TestXMarkGenerates(t *testing.T) {
	data := XMark(1, 200_000)
	if len(data) < 200_000 {
		t.Fatalf("too small: %d", len(data))
	}
	d := checkParses(t, "xmark", data)
	// The tags the X-queries need must all be present.
	for _, tag := range []string{"site", "regions", "item", "people", "person",
		"closed_auctions", "closed_auction", "annotation", "description",
		"text", "keyword", "listitem", "parlist", "emph", "bold", "date",
		"name", "profile", "gender", "age", "phone", "homepage", "address",
		"creditcard", "watches"} {
		if d.TagID(tag) < 0 {
			t.Errorf("missing tag %s", tag)
		}
	}
}

func TestXMarkDeterministic(t *testing.T) {
	a := XMark(7, 50_000)
	b := XMark(7, 50_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give identical output")
	}
	c := XMark(8, 50_000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestMedlineGenerates(t *testing.T) {
	data := Medline(2, 200_000)
	d := checkParses(t, "medline", data)
	for _, tag := range []string{"MedlineCitation", "Article", "AbstractText",
		"AuthorList", "Author", "LastName", "Country", "PublicationType"} {
		if d.TagID(tag) < 0 {
			t.Errorf("missing tag %s", tag)
		}
	}
	// AbstractText must be pure PCDATA (FM-eligible), MedlineCitation mixed.
	if !d.PureText(d.TagID("AbstractText")) {
		t.Error("AbstractText should be pure text")
	}
	if d.PureText(d.TagID("MedlineCitation")) {
		t.Error("MedlineCitation should have mixed content")
	}
}

func TestTreebankGenerates(t *testing.T) {
	data := Treebank(3, 150_000)
	d := checkParses(t, "treebank", data)
	for _, tag := range []string{"S", "NP", "VP", "PP", "IN", "VBN", "JJ", "CC", "NN", "VBZ", "_QUOTE_"} {
		if d.TagID(tag) < 0 {
			t.Errorf("missing tag %s", tag)
		}
	}
	// Recursive structure: NP under NP must occur.
	if !hasNestedTag(d, d.TagID("NP")) {
		t.Error("treebank should have recursive NP")
	}
}

func TestWikiGenerates(t *testing.T) {
	data := Wiki(4, 150_000)
	d := checkParses(t, "wiki", data)
	for _, tag := range []string{"page", "title", "text", "revision"} {
		if d.TagID(tag) < 0 {
			t.Errorf("missing tag %s", tag)
		}
	}
}

func TestBioXMLGenerates(t *testing.T) {
	data := BioXML(5, 300_000)
	d := checkParses(t, "bioxml", data)
	for _, tag := range []string{"chromosome", "gene", "promoter", "sequence",
		"transcript", "exon", "biotype", "status"} {
		if d.TagID(tag) < 0 {
			t.Errorf("missing tag %s", tag)
		}
	}
	if !d.PureText(d.TagID("promoter")) || !d.PureText(d.TagID("sequence")) {
		t.Error("promoter/sequence must be pure PCDATA")
	}
}

func TestBioXMLIsRepetitive(t *testing.T) {
	// The exon reuse must make transcript sequences repeat gene content.
	data := BioXML(6, 400_000)
	// crude check: raw data should contain long repeated DNA substrings
	probe := []byte(nil)
	idx := bytes.Index(data, []byte("<exon>"))
	if idx < 0 {
		t.Fatal("no exon")
	}
	seqIdx := bytes.Index(data[idx:], []byte("<sequence>"))
	start := idx + seqIdx + len("<sequence>")
	probe = data[start : start+100]
	first := bytes.Index(data, probe)
	second := bytes.Index(data[first+1:], probe)
	if second < 0 {
		t.Fatal("exon sequence should repeat in transcript sequence")
	}
}

func TestRNGStability(t *testing.T) {
	r := NewRNG(42)
	a := []int{r.Intn(100), r.Intn(100), r.Intn(100)}
	r2 := NewRNG(42)
	b := []int{r2.Intn(100), r2.Intn(100), r2.Intn(100)}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rng not deterministic")
		}
	}
}

// hasNestedTag reports whether some node labeled tag has an ancestor
// labeled tag, walking each such node's Parent chain.
func hasNestedTag(d *xmltree.Doc, tag int32) bool {
	for j := 0; j < d.TagCount(tag); j++ {
		for p := d.Parent(d.Tag.Select(2*tag, j)); p != xmltree.Nil; p = d.Parent(p) {
			if d.TagOf(p) == tag {
				return true
			}
		}
	}
	return false
}
