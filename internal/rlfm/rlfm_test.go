package rlfm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/wavelet"
)

func naiveRank(s []byte, c byte, i int) int {
	n := 0
	for j := 0; j < i && j < len(s); j++ {
		if s[j] == c {
			n++
		}
	}
	return n
}

func checkSeq(t *testing.T, s []byte) {
	t.Helper()
	q := New(s)
	if q.Len() != len(s) {
		t.Fatalf("len=%d", q.Len())
	}
	for i := range s {
		if q.Access(i) != s[i] {
			t.Fatalf("access(%d)=%d want %d", i, q.Access(i), s[i])
		}
	}
	syms := map[byte]bool{}
	for _, c := range s {
		syms[c] = true
	}
	for c := range syms {
		if q.Count(c) != naiveRank(s, c, len(s)) {
			t.Fatalf("count(%d)", c)
		}
		for i := 0; i <= len(s); i++ {
			if got := q.Rank(c, i); got != naiveRank(s, c, i) {
				t.Fatalf("rank(%d,%d)=%d want %d (s=%q)", c, i, got, naiveRank(s, c, i), s)
			}
		}
	}
	if q.Rank('\xff', len(s)) != naiveRank(s, '\xff', len(s)) {
		t.Fatal("absent symbol rank")
	}
}

func TestRunsBasic(t *testing.T) {
	checkSeq(t, []byte("aaabbbcccaaa"))
	checkSeq(t, []byte("a"))
	checkSeq(t, []byte("ab"))
	checkSeq(t, []byte("aaaa"))
	checkSeq(t, []byte("abcabc"))
}

func TestEmpty(t *testing.T) {
	q := New(nil)
	if q.Len() != 0 || q.Rank('a', 0) != 0 {
		t.Fatal("empty")
	}
}

func TestRandomRuns(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		var s []byte
		for len(s) < 200 {
			c := byte('a' + r.Intn(4))
			rep := 1 + r.Intn(8)
			for k := 0; k < rep; k++ {
				s = append(s, c)
			}
		}
		checkSeq(t, s)
	}
}

func TestRunsCount(t *testing.T) {
	q := New([]byte("aaabbbaaa"))
	if q.Runs() != 3 {
		t.Fatalf("runs=%d", q.Runs())
	}
}

// rankSeqInput turns fuzz bytes into a sequence of runs: each byte pair
// (c, k) contributes k%32+1 copies of c, and a trailing odd byte one copy.
// Pairs make the long runs the run-length sequence is built for as likely
// as single symbols.
func rankSeqInput(data []byte) []byte {
	var s []byte
	for i := 0; i < len(data) && len(s) < 1<<14; i += 2 {
		k := 1
		if i+1 < len(data) {
			k = int(data[i+1])%32 + 1
		}
		s = append(s, bytes.Repeat(data[i:i+1], k)...)
	}
	return s
}

// FuzzRankSequence checks both rank sequences over one byte alphabet — the
// wavelet tree every FM-index stores, and the run-length sequence the
// benchmark measures beside it — against naive prefix counts.
func FuzzRankSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'A'})
	all := make([]byte, 0, 512)
	for c := 0; c < 256; c++ {
		all = append(all, byte(c), 0)
	}
	f.Add(all)
	f.Add([]byte{'A', 31, 'C', 31, 'A', 31, 'G', 7, 'T', 31, 'T', 31, 0, 0, 'A', 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := rankSeqInput(data)
		n := len(s)
		wt, rl := wavelet.New(s), New(s)
		if wt.Len() != n || rl.Len() != n {
			t.Fatalf("Len: wavelet %d, rlfm %d, want %d", wt.Len(), rl.Len(), n)
		}
		// cnt[c] is the naive Rank(c, i) at the top of iteration i.
		var cnt [256]int
		for i, c := range s {
			if wt.Access(i) != c || rl.Access(i) != c {
				t.Fatalf("Access(%d): wavelet %d, rlfm %d, want %d", i, wt.Access(i), rl.Access(i), c)
			}
			o := s[(i*7+3)%n] // a second symbol, usually not c
			for _, x := range []byte{c, o} {
				if wt.Rank(x, i) != cnt[x] || rl.Rank(x, i) != cnt[x] {
					t.Fatalf("Rank(%d, %d): wavelet %d, rlfm %d, want %d", x, i, wt.Rank(x, i), rl.Rank(x, i), cnt[x])
				}
			}
			if got := wt.Select(c, cnt[c]); got != i {
				t.Fatalf("Select(%d, %d) = %d, want %d", c, cnt[c], got, i)
			}
			cnt[c]++
		}
		runs := 0
		for i := range s {
			if i == 0 || s[i] != s[i-1] {
				runs++
			}
		}
		if rl.Runs() != runs {
			t.Fatalf("Runs = %d, want %d", rl.Runs(), runs)
		}
		for c := 0; c < 256; c++ {
			x := byte(c)
			if wt.Count(x) != cnt[x] || rl.Count(x) != cnt[x] {
				t.Fatalf("Count(%d): wavelet %d, rlfm %d, want %d", x, wt.Count(x), rl.Count(x), cnt[x])
			}
			for _, e := range []struct{ i, want int }{{-1, 0}, {0, 0}, {n, cnt[x]}, {n + 1, cnt[x]}} {
				if wt.Rank(x, e.i) != e.want || rl.Rank(x, e.i) != e.want {
					t.Fatalf("Rank(%d, %d): wavelet %d, rlfm %d, want %d", x, e.i, wt.Rank(x, e.i), rl.Rank(x, e.i), e.want)
				}
			}
			if wt.Select(x, cnt[x]) != -1 || wt.Select(x, -1) != -1 {
				t.Fatalf("Select(%d) out of range did not return -1", x)
			}
		}
	})
}

func BenchmarkRLFMRank(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var s []byte
	for len(s) < 1<<20 {
		c := byte('a' + r.Intn(4))
		for k := 0; k < 1+r.Intn(30); k++ {
			s = append(s, c)
		}
	}
	q := New(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Rank(byte('a'+i&3), i&(1<<20-1))
	}
}
