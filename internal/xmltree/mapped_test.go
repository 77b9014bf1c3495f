package xmltree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mmap"
	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

// TestReadIndexMappedRoundTrip: a loaded document must behave identically
// to the parsed original, across every observable of checkDocsEqual.
func TestReadIndexMappedRoundTrip(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := saveBytes(t, d)
	got, err := ReadIndexMapped(data, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.AliasedBytes() != len(data) {
		t.Fatalf("AliasedBytes=%d, buffer is %d bytes", got.AliasedBytes(), len(data))
	}
	if d.AliasedBytes() != 0 {
		t.Fatal("parsed document reports aliased bytes")
	}
	checkDocsEqual(t, d, got)
}

// TestReadIndexMappedSkipVariants: every option combination serializes
// the same document.
func TestReadIndexMappedSkipVariants(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	data := saveBytes(t, d)
	for _, opts := range []Options{
		{SkipFM: true},
		{SkipPlain: true, SampleRate: 4},
		{SampleRate: 4},
	} {
		got, err := ReadIndexMapped(data, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if opts.SkipFM && got.FM != nil {
			t.Fatal("FM built despite SkipFM")
		}
		if opts.SkipPlain && got.Plain != nil {
			t.Fatal("plain store kept despite SkipPlain")
		}
		var s1, s2 bytes.Buffer
		if err := d.GetSubtree(d.Root(), &s1); err != nil {
			t.Fatal(err)
		}
		if err := got.GetSubtree(got.Root(), &s2); err != nil {
			t.Fatal(err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("%+v: serialization differs", opts)
		}
	}
}

// TestReadIndexMappedCorrupt repeats TestReadIndexCorrupt's sweep under
// the skip options, whose decode paths differ (the FM section skipped
// unread, the plain store dropped after validation).
func TestReadIndexMappedCorrupt(t *testing.T) {
	data := saveBytes(t, mustParse(t, Options{SampleRate: 4}))
	for _, opts := range []Options{{SkipFM: true}, {SkipPlain: true}} {
		persisttest.Sweep(t, data, func(b []byte) error {
			_, err := ReadIndexMapped(b, opts)
			return err
		})
	}
}

// withVersion returns a copy of a saved index with its format version
// field replaced: the header of a file written by another format version.
func withVersion(data []byte, v uint16) []byte {
	mut := persist.EnsureAligned(append([]byte(nil), data...))
	binary.LittleEndian.PutUint16(mut[len(IndexMagic):], v)
	return mut
}

// TestOldVersionRejected: a container of any version other than the
// current one — the retired unaligned version 2, or one from a newer
// build — fails typed before any section is decoded, and the message
// names the version and the way out.
func TestOldVersionRejected(t *testing.T) {
	data := saveBytes(t, mustParse(t, Options{SampleRate: 4}))
	for _, v := range []uint16{0, 1, 2, indexVersion + 1} {
		_, err := ReadIndexMapped(withVersion(data, v), Options{})
		if !errors.Is(err, ErrBadIndexFile) {
			t.Fatalf("version %d: want ErrBadIndexFile, got %v", v, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("version %d,", v)) || !strings.Contains(msg, "sxsi build") {
			t.Fatalf("version %d: message %q should name the version and say to rebuild", v, msg)
		}
	}
}

// TestReservedLabelsOutOfPlace: the reserved tag ids are constants, so a
// label table that does not start with &, #, @, % in that order is corrupt.
func TestReservedLabelsOutOfPlace(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	d.names[textTag], d.names[attrsTag] = d.names[attrsTag], d.names[textTag]
	_, err := ReadIndexMapped(saveBytes(t, d), Options{})
	if !errors.Is(err, ErrBadIndexFile) || !strings.Contains(err.Error(), "reserved labels") {
		t.Fatalf("swapped reserved labels: %v", err)
	}
}

// TestResaveByteIdentical: v3 → open → save must be a fixed point, both
// from an aligned heap buffer and from a real mapping of the file.
func TestResaveByteIdentical(t *testing.T) {
	d := mustParse(t, Options{SampleRate: 4})
	first := saveBytes(t, d)

	viaHeap, err := ReadIndexMapped(first, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second := saveBytes(t, viaHeap); !bytes.Equal(first, second) {
		t.Fatal("heap-loaded re-save differs")
	}

	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmap.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	viaMap, err := ReadIndexMapped(m.Data(), Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second := saveBytes(t, viaMap); !bytes.Equal(first, second) {
		t.Fatal("mapped re-save differs")
	}
}

// FuzzLoadMapped drives arbitrary bytes through the loader: any outcome
// but a clean load or a typed error is a bug, and so is a load that
// allocates more than persisttest.MaxAlloc of a clean load of the same
// size, the bound persisttest.Sweep holds. Loaded documents get a cheap
// traversal to catch structures that validated but are inconsistent
// enough to fault.
func FuzzLoadMapped(f *testing.F) {
	d, err := Parse([]byte(serializeDoc), Options{SampleRate: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:8])
	f.Add(withVersion(seed, 2))
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	aligned := persist.EnsureAligned(seed)
	clean, err := persisttest.Alloc(func() error {
		_, err := ReadIndexMapped(aligned, Options{})
		return err
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = persist.EnsureAligned(data)
		var doc *Doc
		alloc, err := persisttest.Alloc(func() (err error) {
			doc, err = ReadIndexMapped(data, Options{})
			return err
		})
		// A clean load allocates in proportion to the index size.
		if limit := persisttest.MaxAlloc(clean * uint64(max(len(data), len(seed))) / uint64(len(seed))); alloc > limit {
			t.Fatalf("load of %d bytes allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		n := 0
		for x := doc.Root(); x != Nil && n < 1<<16; x = doc.FirstChild(x) {
			doc.TagOf(x)
			n++
		}
		for id := 0; id < doc.NumTexts(); id++ {
			doc.Text(id)
		}
		var sink bytes.Buffer
		doc.GetSubtree(doc.Root(), &sink)
	})
}
