package xmltree

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

const serializeDoc = `<lib genre="mixed"><book id="b1"><title>Gold Ring</title>` +
	`<author>A. Writer</author></book><book id="b2"><title>Silver Band</title>` +
	`</book><note>due &amp; paid</note></lib>`

func mustParse(t *testing.T, opts Options) *Doc {
	t.Helper()
	d, err := Parse([]byte(serializeDoc), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// saveBytes returns the saved index in an aligned heap buffer, the image
// every load decodes.
func saveBytes(t *testing.T, d *Doc) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return persist.EnsureAligned(buf.Bytes())
}

// checkDocsEqual compares the observable behaviour of two docs.
func checkDocsEqual(t *testing.T, a, b *Doc) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumTexts() != b.NumTexts() || a.NumTags() != b.NumTags() {
		t.Fatal("dimensions differ")
	}
	for id := int32(0); int(id) < a.NumTags(); id++ {
		if a.TagName(id) != b.TagName(id) || a.TagCount(id) != b.TagCount(id) ||
			a.PureText(id) != b.PureText(id) {
			t.Fatalf("tag %d differs", id)
		}
		for id2 := int32(0); int(id2) < a.NumTags(); id2++ {
			if a.HasDescendantTag(id, id2) != b.HasDescendantTag(id, id2) ||
				a.HasChildTag(id, id2) != b.HasChildTag(id, id2) ||
				a.HasFollowingSiblingTag(id, id2) != b.HasFollowingSiblingTag(id, id2) ||
				a.HasFollowingTag(id, id2) != b.HasFollowingTag(id, id2) {
				t.Fatalf("tag tables differ at (%d,%d)", id, id2)
			}
		}
	}
	for x := 0; x < a.Par.Len(); x++ {
		if a.Par.IsOpen(x) != b.Par.IsOpen(x) || a.Tag.Access(x) != b.Tag.Access(x) {
			t.Fatalf("structure differs at %d", x)
		}
	}
	for id := 0; id < a.NumTexts(); id++ {
		if !bytes.Equal(a.Text(id), b.Text(id)) {
			t.Fatalf("text %d differs", id)
		}
		if a.TextIDToNode(id) != b.TextIDToNode(id) {
			t.Fatalf("leaf %d differs", id)
		}
	}
	var s1, s2 bytes.Buffer
	if err := a.GetSubtree(a.Root(), &s1); err != nil {
		t.Fatal(err)
	}
	if err := b.GetSubtree(b.Root(), &s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("serialization differs:\n%s\n%s", s1.String(), s2.String())
	}
}

func TestDocSaveLoadRoundTrip(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := saveBytes(t, d)
	got, err := ReadIndexMapped(data, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkDocsEqual(t, d, got)
	if got.FM == nil {
		t.Fatal("FM-index not restored")
	}
	// FM answers must match.
	for _, p := range []string{"Gold", "Ring", "Writer", "zzz"} {
		if len(d.FM.Contains([]byte(p))) != len(got.FM.Contains([]byte(p))) {
			t.Fatalf("FM Contains(%q)", p)
		}
	}
}

func TestDocSaveLoadSkipVariants(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := saveBytes(t, d)

	// SkipFM: the FM section must be skipped, not decoded.
	noFM, err := ReadIndexMapped(data, Options{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	if noFM.FM != nil {
		t.Fatal("FM present despite SkipFM")
	}
	checkDocsEqual(t, d, noFM) // Text falls back to the plain store

	// SkipPlain: texts come from the FM-index.
	noPlain, err := ReadIndexMapped(data, Options{SkipPlain: true})
	if err != nil {
		t.Fatal(err)
	}
	if noPlain.Plain != nil {
		t.Fatal("plain store present despite SkipPlain")
	}
	checkDocsEqual(t, d, noPlain)

	// A file saved without FM, loaded with FM wanted: rebuild.
	dNoFM := mustParse(t, Options{SkipFM: true, SampleRate: 4})
	data2 := saveBytes(t, dNoFM)
	rebuilt, err := ReadIndexMapped(data2, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.FM == nil {
		t.Fatal("FM not rebuilt")
	}
	checkDocsEqual(t, d, rebuilt)
}

func TestReadIndexCorrupt(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := saveBytes(t, d)
	// A single-byte flip may legitimately go unnoticed (e.g. inside text
	// content), but any failure must be the typed error.
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := ReadIndexMapped(b, Options{})
		return err
	})

	// Wrong magic.
	bad := persisttest.Flip(data, 0)
	bad[0] = 'X'
	if _, err := ReadIndexMapped(bad, Options{}); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("bad magic: %v", err)
	}

	// Future version.
	bad = persisttest.Flip(data, len(IndexMagic))
	bad[len(IndexMagic)] = 0xFF
	if _, err := ReadIndexMapped(bad, Options{}); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("future version: %v", err)
	}
}

// TestReadIndexNulText: a text holding the FM terminator byte can only come
// from a damaged file, so rebuilding the missing FM-index over it fails
// with the typed error.
func TestReadIndexNulText(t *testing.T) {
	data := saveBytes(t, mustParse(t, Options{SkipFM: true}))
	data[bytes.Index(data, []byte("Gold"))] = 0
	if _, err := ReadIndexMapped(data, Options{}); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("NUL in a text: %v", err)
	}
}

func TestReadIndexMissingSection(t *testing.T) {
	// A header with no sections at all: magic + version (already on an
	// 8-byte offset) + end marker.
	var buf bytes.Buffer
	buf.WriteString(IndexMagic)
	buf.Write([]byte{indexVersion, 0}) // little-endian
	buf.Write([]byte{0, 0, 0, 0})      // end marker
	_, err := ReadIndexMapped(persist.EnsureAligned(buf.Bytes()), Options{})
	if !errors.Is(err, ErrBadIndexFile) || !strings.Contains(err.Error(), "missing a required section") {
		t.Fatalf("missing sections: %v", err)
	}
}
