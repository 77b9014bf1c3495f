package wavelet

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

func roundTrip(t *testing.T, s []byte) *Tree {
	t.Helper()
	w := New(s)
	got, err := persisttest.Read(persisttest.Bytes(t, w), Read)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Fatalf("len %d != %d", got.Len(), w.Len())
	}
	for i := range s {
		if got.Access(i) != s[i] {
			t.Fatalf("Access(%d)=%q want %q", i, got.Access(i), s[i])
		}
	}
	for c := 0; c < 256; c++ {
		if got.Count(byte(c)) != w.Count(byte(c)) {
			t.Fatalf("Count(%d)", c)
		}
	}
	return got
}

func TestTreeSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqs := [][]byte{
		nil,
		[]byte("aaaaaaa"), // single symbol: leaf root, no bitmaps
		[]byte("abracadabra"),
		make([]byte, 4096),
	}
	for i := range seqs[3] {
		seqs[3][i] = byte(rng.Intn(200))
	}
	for _, s := range seqs {
		got := roundTrip(t, s)
		// Rank/Select must agree with a fresh tree at probe points.
		fresh := New(s)
		for c := 0; c < 256; c += 13 {
			for i := 0; i <= len(s); i += 1 + len(s)/61 {
				if got.Rank(byte(c), i) != fresh.Rank(byte(c), i) {
					t.Fatalf("Rank(%d,%d)", c, i)
				}
			}
			for j := 0; j < fresh.Count(byte(c)); j += 1 + fresh.Count(byte(c))/17 {
				if got.Select(byte(c), j) != fresh.Select(byte(c), j) {
					t.Fatalf("Select(%d,%d)", c, j)
				}
			}
		}
	}
}

func TestTreeLoadCorrupt(t *testing.T) {
	w := New([]byte("mississippi river runs"))
	data := persisttest.Bytes(t, w)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := persisttest.Read(b, Read)
		return err
	})
	// Counts not summing to the length.
	bad := persisttest.Flip(data, 1)
	bad[1] = byte(len("mississippi river runs") + 1)
	if _, err := persisttest.Read(bad, Read); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad total: %v", err)
	}
}
