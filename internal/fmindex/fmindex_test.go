package fmindex

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func mkTexts(ss ...string) [][]byte {
	t := make([][]byte, len(ss))
	for i, s := range ss {
		t[i] = []byte(s)
	}
	return t
}

func build(t *testing.T, texts [][]byte, rate int) *Index {
	t.Helper()
	idx, err := NewCtx(context.Background(), texts, Options{SampleRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// naive oracles

func naiveGlobalCount(texts [][]byte, p []byte) int {
	n := 0
	for _, t := range texts {
		n += strings.Count(string(t), string(p))
		// strings.Count counts non-overlapping; we need all occurrences.
	}
	// recompute with overlapping
	n = 0
	for _, t := range texts {
		for i := 0; i+len(p) <= len(t); i++ {
			if bytes.Equal(t[i:i+len(p)], p) {
				n++
			}
		}
	}
	return n
}

func naiveContains(texts [][]byte, p []byte) []int {
	var ids []int
	for i, t := range texts {
		if bytes.Contains(t, p) {
			ids = append(ids, i)
		}
	}
	return ids
}

func naiveStartsWith(texts [][]byte, p []byte) []int {
	var ids []int
	for i, t := range texts {
		if bytes.HasPrefix(t, p) {
			ids = append(ids, i)
		}
	}
	return ids
}

func naiveEndsWith(texts [][]byte, p []byte) []int {
	var ids []int
	for i, t := range texts {
		if bytes.HasSuffix(t, p) {
			ids = append(ids, i)
		}
	}
	return ids
}

func naiveEquals(texts [][]byte, p []byte) []int {
	var ids []int
	for i, t := range texts {
		if bytes.Equal(t, p) {
			ids = append(ids, i)
		}
	}
	return ids
}

func naiveLess(texts [][]byte, p []byte) int {
	n := 0
	for _, t := range texts {
		if bytes.Compare(t, p) < 0 {
			n++
		}
	}
	return n
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAllOps(t *testing.T, texts [][]byte, idx *Index, patterns []string) {
	t.Helper()
	for _, ps := range patterns {
		p := []byte(ps)
		if got, want := idx.GlobalCount(p), naiveGlobalCount(texts, p); got != want {
			t.Fatalf("GlobalCount(%q)=%d want %d", ps, got, want)
		}
		if got, want := idx.Contains(p), naiveContains(texts, p); !intsEqual(got, want) {
			t.Fatalf("Contains(%q)=%v want %v", ps, got, want)
		}
		if got, want := idx.StartsWith(p), naiveStartsWith(texts, p); !intsEqual(got, want) {
			t.Fatalf("StartsWith(%q)=%v want %v", ps, got, want)
		}
		if got, want := idx.StartsWithCount(p), len(naiveStartsWith(texts, p)); got != want {
			t.Fatalf("StartsWithCount(%q)=%d want %d", ps, got, want)
		}
		if got, want := idx.EndsWith(p), naiveEndsWith(texts, p); !intsEqual(got, want) {
			t.Fatalf("EndsWith(%q)=%v want %v", ps, got, want)
		}
		if got, want := idx.Equals(p), naiveEquals(texts, p); !intsEqual(got, want) {
			t.Fatalf("Equals(%q)=%v want %v", ps, got, want)
		}
		if got, want := idx.LessThanCount(p), naiveLess(texts, p); got != want {
			t.Fatalf("LessThanCount(%q)=%d want %d", ps, got, want)
		}
		if got, want := idx.LessEqCount(p), naiveLess(texts, p)+len(naiveEquals(texts, p)); got != want {
			t.Fatalf("LessEqCount(%q)=%d want %d", ps, got, want)
		}
		if got, want := idx.GreaterThanCount(p), len(texts)-naiveLess(texts, p)-len(naiveEquals(texts, p)); got != want {
			t.Fatalf("GreaterThanCount(%q)=%d want %d", ps, got, want)
		}
		// Locate: verify every reported occurrence and the count.
		occs := idx.Locate(p)
		if len(occs) != naiveGlobalCount(texts, p) {
			t.Fatalf("Locate(%q) count=%d want %d", ps, len(occs), naiveGlobalCount(texts, p))
		}
		for _, o := range occs {
			if o.Text < 0 || o.Text >= len(texts) {
				t.Fatalf("Locate(%q) bad text id %d", ps, o.Text)
			}
			tx := texts[o.Text]
			if o.Offset < 0 || o.Offset+len(p) > len(tx) || !bytes.Equal(tx[o.Offset:o.Offset+len(p)], p) {
				t.Fatalf("Locate(%q) bad occurrence %+v", ps, o)
			}
		}
	}
}

func TestPaperRunningExample(t *testing.T) {
	// The six texts from Figure 1.
	texts := mkTexts("pen", "Soon discontinued", "blue", "40", "rubber", "30")
	idx := build(t, texts, 3)
	checkAllOps(t, texts, idx, []string{
		"n", "o", "blue", "pen", "rubber", "discontinued", "Soon", "0", "3", "4",
		"e", "ue", "zzz", "b", "", "S",
	})
	// Extraction must reproduce every text.
	for i, tx := range texts {
		if got := idx.Extract(i); !bytes.Equal(got, tx) {
			t.Fatalf("Extract(%d)=%q want %q", i, got, tx)
		}
	}
}

func TestDiscontinuedExample(t *testing.T) {
	// Figure 2 example: T = "discontinued", sampled each 3 positions; the
	// paper finds P="n" at positions {6, 9} (1-based), i.e. {5, 8} 0-based.
	texts := mkTexts("discontinued")
	idx := build(t, texts, 3)
	occs := idx.Locate([]byte("n"))
	var offs []int
	for _, o := range occs {
		offs = append(offs, o.Offset)
	}
	sort.Ints(offs)
	if !intsEqual(offs, []int{5, 8}) {
		t.Fatalf("offsets=%v", offs)
	}
}

func TestSingleText(t *testing.T) {
	texts := mkTexts("mississippi")
	idx := build(t, texts, 4)
	checkAllOps(t, texts, idx, []string{"ssi", "i", "p", "mississippi", "x", "m", "pi"})
}

func TestManySmallTexts(t *testing.T) {
	var texts [][]byte
	words := []string{"apple", "banana", "cherry", "apple", "date", "fig", "grape", "banana", "kiwi", "lemon"}
	for _, w := range words {
		texts = append(texts, []byte(w))
	}
	idx := build(t, texts, 2)
	checkAllOps(t, texts, idx, []string{"a", "an", "apple", "e", "fig", "z", "ki", "banana", "ban"})
}

func TestEmptyCollection(t *testing.T) {
	idx := build(t, nil, 4)
	if idx.GlobalCount([]byte("a")) != 0 {
		t.Fatal("empty collection count")
	}
	if idx.NumTexts() != 0 {
		t.Fatal("numtexts")
	}
}

func TestEmptyTextInCollection(t *testing.T) {
	texts := mkTexts("abc", "", "def")
	idx := build(t, texts, 2)
	checkAllOps(t, texts, idx, []string{"abc", "", "d", "c"})
	if got := idx.Extract(1); len(got) != 0 {
		t.Fatalf("empty text extract %q", got)
	}
}

func TestNulByteRejected(t *testing.T) {
	_, err := NewCtx(context.Background(), [][]byte{{1, 0, 2}}, Options{})
	if err != ErrNulByte {
		t.Fatalf("want ErrNulByte, got %v", err)
	}
}

func TestRandomCollectionAllRates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	alpha := "abcdb"
	for trial := 0; trial < 10; trial++ {
		d := 1 + r.Intn(12)
		texts := make([][]byte, d)
		for i := range texts {
			n := r.Intn(40)
			b := make([]byte, n)
			for j := range b {
				b[j] = alpha[r.Intn(len(alpha))]
			}
			texts[i] = b
		}
		var patterns []string
		for k := 0; k < 8; k++ {
			n := 1 + r.Intn(4)
			b := make([]byte, n)
			for j := range b {
				b[j] = alpha[r.Intn(len(alpha))]
			}
			patterns = append(patterns, string(b))
		}
		for _, rate := range []int{1, 3, 64} {
			idx := build(t, texts, rate)
			checkAllOps(t, texts, idx, patterns)
			for i, tx := range texts {
				if got := idx.Extract(i); !bytes.Equal(got, tx) {
					t.Fatalf("Extract(%d)=%q want %q", i, got, tx)
				}
			}
		}
	}
}

func TestPosToText(t *testing.T) {
	texts := mkTexts("abc", "de", "f")
	idx := build(t, texts, 1)
	// Global layout: a b c $ d e $ f $
	cases := []struct{ pos, text, off int }{
		{0, 0, 0}, {2, 0, 2}, {4, 1, 0}, {5, 1, 1}, {7, 2, 0},
	}
	for _, c := range cases {
		tx, off := idx.PosToText(c.pos)
		if tx != c.text || off != c.off {
			t.Errorf("PosToText(%d)=(%d,%d) want (%d,%d)", c.pos, tx, off, c.text, c.off)
		}
	}
}

func TestUnicodeUTF8(t *testing.T) {
	texts := mkTexts("héllo wörld", "日本語テキスト", "ascii only")
	idx := build(t, texts, 4)
	checkAllOps(t, texts, idx, []string{"héllo", "日本", "only", "ö"})
}

func BenchmarkBackwardSearch(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	var texts [][]byte
	for i := 0; i < 200; i++ {
		n := 500 + r.Intn(500)
		tx := make([]byte, n)
		for j := range tx {
			tx[j] = byte('a' + r.Intn(20))
		}
		texts = append(texts, tx)
	}
	idx, _ := NewCtx(context.Background(), texts, Options{SampleRate: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.GlobalCount([]byte("abcde"))
	}
}

// TestContainsAllocs pins Contains to a single allocation — the id slice,
// sized by the row range and compacted in place — however many occurrences
// and distinct texts the pattern has.
func TestContainsAllocs(t *testing.T) {
	var texts [][]byte
	for i := 0; i < 500; i++ {
		texts = append(texts, []byte(strings.Repeat("brain cell ", 1+i%7)))
	}
	idx := build(t, texts, 16)
	p := []byte("brain")
	if got := idx.Contains(p); len(got) != len(texts) {
		t.Fatalf("Contains matched %d texts, want %d", len(got), len(texts))
	}
	if idx.SampleRate() != 16 {
		t.Fatalf("SampleRate()=%d want 16", idx.SampleRate())
	}
	if a := testing.AllocsPerRun(20, func() { idx.Contains(p) }); a > 1 {
		t.Fatalf("Contains allocates %.0f objects per call, want <= 1", a)
	}
}
