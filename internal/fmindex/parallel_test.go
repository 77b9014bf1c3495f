package fmindex

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/persist/persisttest"
)

// assertIdentical pins the parallel build against the serial one: identical
// serialized bytes and identical in-memory tables (c and strt are not part
// of the serialized payload, so they are compared directly).
func assertIdentical(t *testing.T, texts [][]byte, opts Options, bo BuildOptions) {
	t.Helper()
	want, err := New(texts, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewParallel(context.Background(), texts, opts, bo)
	if err != nil {
		t.Fatal(err)
	}
	// Byte equality of the stored form is what makes parallel and serial
	// builds produce identical .sxsi files.
	if !bytes.Equal(persisttest.Bytes(t, want), persisttest.Bytes(t, got)) {
		t.Fatalf("serialized bytes differ (procs=%d budget=%d)", bo.Procs, bo.MemoryBudget)
	}
	if want.c != got.c {
		t.Fatalf("c tables differ (procs=%d budget=%d)", bo.Procs, bo.MemoryBudget)
	}
	if !reflect.DeepEqual(want.doc, got.doc) || !reflect.DeepEqual(want.ps, got.ps) {
		t.Fatal("doc/ps differ")
	}
	for i := 0; i < len(texts); i++ {
		if want.strt.Select1(i) != got.strt.Select1(i) {
			t.Fatalf("strt differs at text %d", i)
		}
	}
}

// randomTexts draws a collection over the given alphabet, including empty
// texts roughly one time in eight.
func randomTexts(rng *rand.Rand, d, maxLen, sigma int) [][]byte {
	texts := make([][]byte, d)
	for i := range texts {
		if rng.Intn(8) == 0 {
			texts[i] = []byte{}
			continue
		}
		n := rng.Intn(maxLen + 1)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(1 + rng.Intn(sigma)) // never 0
		}
		texts[i] = b
	}
	return texts
}

func TestParallelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ d, maxLen, sigma int }{
		{1, 300, 26},
		{5, 100, 2},    // tiny alphabet: long shared prefixes, deep ties
		{40, 200, 26},  // many texts, empties mixed in
		{12, 400, 200}, // wide alphabet
		{30, 50, 1},    // unary alphabet: every suffix pair ties
	}
	budgets := []int64{0, 1 << 20}
	procs := []int{1, 2, 8}
	for si, sh := range shapes {
		texts := randomTexts(rng, sh.d, sh.maxLen, sh.sigma)
		for _, p := range procs {
			for _, b := range budgets {
				bo := BuildOptions{Procs: p, MemoryBudget: b, TempDir: t.TempDir()}
				assertIdentical(t, texts, Options{SampleRate: 4}, bo)
				_ = si
			}
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	cases := map[string][][]byte{
		"empty collection": nil,
		"one empty text":   {{}},
		"all empty":        {{}, {}, {}, {}},
		"single text":      {[]byte("mississippi")},
		"prefix chain":     {[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("")},
		"identical texts":  {[]byte("abab"), []byte("abab"), []byte("abab")},
	}
	for name, texts := range cases {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{1, 3} {
				assertIdentical(t, texts, Options{SampleRate: 4},
					BuildOptions{Procs: p, TempDir: t.TempDir()})
			}
		})
	}
}

// A tight budget must force multiple chunks and spilling, exercise the
// split-and-merge machinery on a skewed two-letter alphabet, still produce
// identical bytes, and leave no spill files behind.
func TestParallelTightBudgetSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	texts := randomTexts(rng, 64, 8<<10, 2)
	dir := t.TempDir()
	var st BuildStats
	bo := BuildOptions{Procs: 8, MemoryBudget: 1 << 20, TempDir: dir, Stats: &st}
	assertIdentical(t, texts, Options{SampleRate: 16}, bo)
	if st.Chunks < 2 {
		t.Fatalf("expected multiple chunks, got %d", st.Chunks)
	}
	if !st.Spilled {
		t.Fatal("expected the tight budget to spill suffix arrays")
	}
	left, err := filepath.Glob(filepath.Join(dir, "sxsi-sa-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

func TestParallelNulByte(t *testing.T) {
	_, err := NewParallel(context.Background(), [][]byte{[]byte("ok"), {1, 0, 2}},
		Options{}, BuildOptions{Procs: 2, TempDir: t.TempDir()})
	if !errors.Is(err, ErrNulByte) {
		t.Fatalf("want ErrNulByte, got %v", err)
	}
}

// Cancellation must propagate out of the chunk sort and leave the spill
// directory clean.
func TestParallelCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	texts := randomTexts(rng, 16, 64<<10, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	_, err := NewParallel(ctx, texts, Options{},
		BuildOptions{Procs: 4, MemoryBudget: 1 << 20, TempDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("temp files left after cancellation: %v", ents)
	}
}
