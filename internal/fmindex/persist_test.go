package fmindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

// load decodes a stored index the way the index container's FM section is
// read, then attaches the text ends the container's text store holds.
func load(data []byte, ends []uint64) (*Index, error) {
	x, err := persisttest.Read(data, Read)
	if err != nil {
		return nil, err
	}
	if !x.SetTextEnds(ends) {
		return nil, fmt.Errorf("%w: text ends do not match the index", persist.ErrCorrupt)
	}
	return x, nil
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
	x, err := NewCtx(context.Background(), persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(persisttest.Bytes(t, x), x.ends)
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, x, got)
}

func TestIndexSaveLoadEmpty(t *testing.T) {
	x, err := NewCtx(context.Background(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(persisttest.Bytes(t, x), x.ends)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTexts() != 0 || got.Size() != 0 {
		t.Fatal("empty index dimensions")
	}
}

// rawBWTPayload writes x in the retired sequence kind 0: the same sampling
// metadata as Store, then the BWT as a plain length-prefixed byte string.
func rawBWTPayload(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	pw.Byte(indexFormat)
	pw.Int(x.n)
	pw.Int(x.d)
	pw.Int(x.l)
	pw.Int32s(x.doc)
	pw.Int32s(x.ps)
	x.bs.Store(pw)
	pw.Byte(0)
	bwt := make([]byte, x.n)
	for i := range bwt {
		bwt[i] = x.bwt.Access(i)
	}
	pw.Bytes(bwt)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The raw-BWT payload (sequence kind 0) is no longer a stored form: the
// loader rejects it as corrupt instead of rebuilding a wavelet tree.
func TestIndexLoadRawBWTRejected(t *testing.T) {
	x, err := NewCtx(context.Background(), persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load(rawBWTPayload(t, x), x.ends); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("raw BWT payload: want ErrCorrupt, got %v", err)
	}
}

func TestIndexLoadCorrupt(t *testing.T) {
	x, err := NewCtx(context.Background(), persistTexts, Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := persisttest.Bytes(t, x)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := load(b, x.ends)
		return err
	})
	// Text count inconsistent with the terminator count.
	bad := persisttest.Flip(data, 9)
	bad[9] = data[9] + 1 // d field (format byte + n)
	if _, err := load(bad, x.ends); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad d: %v", err)
	}
}
