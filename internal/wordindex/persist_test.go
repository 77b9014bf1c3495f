package wordindex

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

func TestWordIndexSaveLoadRoundTrip(t *testing.T) {
	texts := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("the quick red fox"),
		[]byte(""),
		[]byte("dog eat dog world"),
	}
	ix := mustNew(t, texts)
	got, err := persisttest.Read(persisttest.Bytes(t, ix), Read)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWords() != ix.NumWords() || got.VocabSize() != ix.VocabSize() {
		t.Fatal("dimensions differ")
	}
	for _, phrase := range []string{
		"the quick", "fox", "dog", "quick brown fox", "lazy cat", "dog eat dog", "",
	} {
		if got.CountOccurrences(phrase) != ix.CountOccurrences(phrase) {
			t.Fatalf("CountOccurrences(%q)", phrase)
		}
		if !reflect.DeepEqual(got.ContainsPhrase(phrase), ix.ContainsPhrase(phrase)) {
			t.Fatalf("ContainsPhrase(%q)", phrase)
		}
	}
}

func TestWordIndexLoadCorrupt(t *testing.T) {
	ix := mustNew(t, [][]byte{[]byte("one two three"), []byte("two three four")})
	data := persisttest.Bytes(t, ix)
	for cut := 0; cut < len(data); cut++ {
		if _, err := persisttest.Read(data[:cut], Read); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
	// A suffix array that is not a permutation must be rejected. Rather
	// than hand-computing offsets, flip every byte: each mutation must load
	// or fail with a clean error; no input may panic.
	for i := range data {
		if _, err := persisttest.Read(persisttest.Flip(data, i), Read); err != nil && !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("byte %d: unexpected error type %v", i, err)
		}
	}
	// The retired unaligned format 1 is refused by its version byte.
	old := persisttest.Flip(data, 0)
	old[0] = 1
	if _, err := persisttest.Read(old, Read); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("format 1: err=%v", err)
	}
}
