package bits

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveSelect is the reference for SelectInWord: clear the j lowest set
// bits, then take the lowest remaining one (64 when none remains).
func naiveSelect(w uint64, j int) int {
	for i := 0; i < j && w != 0; i++ {
		w &= w - 1
	}
	if w == 0 {
		return 64
	}
	return bits.TrailingZeros64(w)
}

// checkSelect compares SelectInWord with naiveSelect for every j in
// [0, 64], so every j >= Popcount(w) is checked to return 64.
func checkSelect(t *testing.T, w uint64) {
	t.Helper()
	for j := 0; j <= 64; j++ {
		if got, want := SelectInWord(w, j), naiveSelect(w, j); got != want {
			t.Fatalf("SelectInWord(%#016x, %d) = %d, want %d", w, j, got, want)
		}
	}
}

func TestSelectInWordBasic(t *testing.T) {
	cases := []struct {
		w    uint64
		j    int
		want int
	}{
		{0b1, 0, 0},
		{0b10, 0, 1},
		{0b101, 1, 2},
		{^uint64(0), 63, 63},
		{^uint64(0), 0, 0},
		{1 << 63, 0, 63},
		{0, 0, 64},
		{0b101, 2, 64},
		{^uint64(0), 64, 64},
	}
	for _, c := range cases {
		if got := SelectInWord(c.w, c.j); got != c.want {
			t.Errorf("SelectInWord(%b,%d)=%d want %d", c.w, c.j, got, c.want)
		}
	}
}

// TestSelectInWordEdges covers the words whose byte prefix counts sit at
// the limits of the SWAR comparison: empty and full words and bytes, single
// bits at every position, and alternating and byte-periodic patterns.
func TestSelectInWordEdges(t *testing.T) {
	words := []uint64{0, ^uint64(0), 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0x00ff00ff00ff00ff, 0xff00ff00ff00ff00, 0x8000000000000001,
		0x0101010101010101, 0x8080808080808080, 0xff, 0xff << 56}
	for b := 0; b < 64; b++ {
		words = append(words, 1<<uint(b), ^uint64(1<<uint(b)), ^uint64(0)<<uint(b), ^uint64(0)>>uint(b))
	}
	for by := 0; by < 8; by++ {
		for v := 0; v < 256; v++ {
			words = append(words, uint64(v)<<uint(8*by))
		}
	}
	for _, w := range words {
		checkSelect(t, w)
	}
}

// TestSelectInWordProperty checks random words of every density, since a
// uniform word has about 32 ones and so leaves the sparse and dense ends
// of the range unexercised.
func TestSelectInWordProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		w := r.Uint64()
		switch i % 4 {
		case 1:
			w &= r.Uint64() & r.Uint64()
		case 2:
			w |= r.Uint64() | r.Uint64()
		case 3:
			w &= r.Uint64() & r.Uint64() & r.Uint64() & r.Uint64()
		}
		checkSelect(t, w)
	}
	f := func(w uint64) bool {
		for j := 0; j <= 64; j++ {
			if SelectInWord(w, j) != naiveSelect(w, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRank9WordMask(t *testing.T) {
	if Rank9WordMask(0) != 0 {
		t.Error("mask(0) != 0")
	}
	if Rank9WordMask(64) != ^uint64(0) {
		t.Error("mask(64) != all ones")
	}
	if Rank9WordMask(1) != 1 {
		t.Error("mask(1) != 1")
	}
	for n := 0; n <= 64; n++ {
		if got := Popcount(Rank9WordMask(n)); got != n {
			t.Errorf("popcount(mask(%d)) = %d", n, got)
		}
	}
}

// TestExcessTables recomputes every table entry from the definition: the
// byte is a sequence of 8 parentheses, bit 0 first, delta +1 for a set bit.
func TestExcessTables(t *testing.T) {
	for v := 0; v < 256; v++ {
		// Forward: running excess after 1..8 steps from bit 0.
		e, mn, mx := 0, 127, -127
		for b := 0; b < 8; b++ {
			if v>>uint(b)&1 == 1 {
				e++
			} else {
				e--
			}
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		if int(ExcessTotal[v]) != e {
			t.Fatalf("ExcessTotal[%#02x]=%d want %d", v, ExcessTotal[v], e)
		}
		if int(ExcessFwdMin[v]) != mn || int(ExcessFwdMax[v]) != mx {
			t.Fatalf("ExcessFwd[%#02x]=[%d,%d] want [%d,%d]", v, ExcessFwdMin[v], ExcessFwdMax[v], mn, mx)
		}
		// Backward: undoing bits 7..0 from the byte's last position, the
		// walk sits at the negated suffix sums of the deltas.
		e, mn, mx = 0, 127, -127
		for b := 7; b >= 0; b-- {
			if v>>uint(b)&1 == 1 {
				e--
			} else {
				e++
			}
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		if int(ExcessBwdMin[v]) != mn || int(ExcessBwdMax[v]) != mx {
			t.Fatalf("ExcessBwd[%#02x]=[%d,%d] want [%d,%d]", v, ExcessBwdMin[v], ExcessBwdMax[v], mn, mx)
		}
		// The two walks are mirror images: backward over v equals forward
		// over the bit-reversed byte with signs flipped.
		rev := 0
		for b := 0; b < 8; b++ {
			if v>>uint(b)&1 == 1 {
				rev |= 1 << uint(7-b)
			}
		}
		if int(ExcessBwdMin[v]) != -int(ExcessFwdMax[rev]) || int(ExcessBwdMax[v]) != -int(ExcessFwdMin[rev]) {
			t.Fatalf("ExcessBwd[%#02x] not mirror of ExcessFwd[%#02x]", v, rev)
		}
	}
}

func BenchmarkSelectInWord(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ws := make([]uint64, 1024)
	for i := range ws {
		ws[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ws[i&1023]
		SelectInWord(w, Popcount(w)/2)
	}
}
