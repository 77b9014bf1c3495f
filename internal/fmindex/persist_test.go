package fmindex

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
	"repro/internal/rlfm"
)

// load decodes a stored index with the given sequence builder, the way the
// index container's FM section is read.
func load(data []byte, builder SequenceBuilder) (*Index, error) {
	return persisttest.Read(data, func(mr *persist.MReader) *Index { return Read(mr, builder) })
}

var persistTexts = [][]byte{
	[]byte("abracadabra"),
	[]byte(""),
	[]byte("gold ring"),
	[]byte("ring of gold"),
	[]byte("abra"),
}

func checkSameIndex(t *testing.T, a, b *Index) {
	t.Helper()
	if a.NumTexts() != b.NumTexts() || a.Size() != b.Size() {
		t.Fatal("dimensions differ")
	}
	patterns := [][]byte{
		[]byte("a"), []byte("abra"), []byte("gold"), []byte("ring"),
		[]byte("zzz"), []byte(""), []byte("abracadabra"), []byte("g"),
	}
	for _, p := range patterns {
		if a.GlobalCount(p) != b.GlobalCount(p) {
			t.Fatalf("GlobalCount(%q)", p)
		}
		if !reflect.DeepEqual(a.Contains(p), b.Contains(p)) {
			t.Fatalf("Contains(%q)", p)
		}
		if !reflect.DeepEqual(a.StartsWith(p), b.StartsWith(p)) {
			t.Fatalf("StartsWith(%q)", p)
		}
		if !reflect.DeepEqual(a.EndsWith(p), b.EndsWith(p)) {
			t.Fatalf("EndsWith(%q)", p)
		}
		if !reflect.DeepEqual(a.Equals(p), b.Equals(p)) {
			t.Fatalf("Equals(%q)", p)
		}
		if a.LessThanCount(p) != b.LessThanCount(p) {
			t.Fatalf("LessThanCount(%q)", p)
		}
	}
	for id := 0; id < a.NumTexts(); id++ {
		if !bytes.Equal(a.Extract(id), b.Extract(id)) {
			t.Fatalf("Extract(%d)", id)
		}
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	x, err := New(persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(persisttest.Bytes(t, x), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, x, got)
}

func TestIndexSaveLoadEmpty(t *testing.T) {
	x, err := New(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(persisttest.Bytes(t, x), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTexts() != 0 || got.Size() != 0 {
		t.Fatal("empty index dimensions")
	}
}

// A wavelet-stored file loaded with a run-length builder must re-materialize
// the BWT and answer identically; and vice versa a run-length index saves as
// a raw BWT and loads into a wavelet tree.
func TestIndexSaveLoadCrossSequence(t *testing.T) {
	rlBuilder := func(bwt []byte) RankSequence { return rlfm.New(bwt) }

	x, err := New(persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	gotRL, err := load(persisttest.Bytes(t, x), rlBuilder)
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, x, gotRL)

	xRL, err := New(persistTexts, Options{SampleRate: 4, Builder: rlBuilder})
	if err != nil {
		t.Fatal(err)
	}
	gotWT, err := load(persisttest.Bytes(t, xRL), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, x, gotWT)
}

func TestIndexLoadCorrupt(t *testing.T) {
	x, err := New(persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := persisttest.Bytes(t, x)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := load(b, nil)
		return err
	})
	// Text count inconsistent with the terminator count.
	bad := persisttest.Flip(data, 9)
	bad[9] = data[9] + 1 // d field (format byte + n)
	if _, err := load(bad, nil); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad d: %v", err)
	}
}
