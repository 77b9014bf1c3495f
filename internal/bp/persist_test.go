package bp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

// randomTree produces a balanced parenthesis sequence of n nodes.
func randomTree(rng *rand.Rand, n int) []bool {
	var seq []bool
	open := 0
	nodes := 0
	for nodes < n || open > 0 {
		if nodes < n && (open == 0 || rng.Intn(2) == 0) {
			seq = append(seq, true)
			open++
			nodes++
		} else {
			seq = append(seq, false)
			open--
		}
	}
	return seq
}

func TestParensSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 10, 300, 2000} {
		p := NewFromBools(randomTree(rng, n))
		got, err := persisttest.Read(persisttest.Bytes(t, p), Read)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != p.Len() || got.NumNodes() != p.NumNodes() {
			t.Fatalf("n=%d: dimensions", n)
		}
		for i := 0; i < p.Len(); i++ {
			if got.IsOpen(i) != p.IsOpen(i) {
				t.Fatalf("IsOpen(%d)", i)
			}
			if p.IsOpen(i) {
				if got.FindClose(i) != p.FindClose(i) ||
					got.Parent(i) != p.Parent(i) ||
					got.FirstChild(i) != p.FirstChild(i) ||
					got.NextSibling(i) != p.NextSibling(i) ||
					got.SubtreeSize(i) != p.SubtreeSize(i) {
					t.Fatalf("navigation differs at %d", i)
				}
			}
		}
	}
}

func TestParensLoadCorrupt(t *testing.T) {
	p := NewFromBools([]bool{true, true, false, true, false, false})
	data := persisttest.Bytes(t, p)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := persisttest.Read(b, Read)
		return err
	})
	// An odd parenthesis count cannot be a tree.
	bad := persisttest.Flip(data, 2)
	bad[2] = 7 // vector length field (offset: parens format byte + vector format byte)
	if _, err := persisttest.Read(bad, Read); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("odd count: %v", err)
	}
	// Even-length sequences that are not trees: one dips below zero and
	// climbs back (so only the minimum shows it), one ends above zero.
	// Each fault sits at the start, past the first 512-bit rmM block (in a
	// whole byte, read through the byte tables), and in a sub-byte tail
	// (read bit by bit).
	block := strings.Repeat("()", 260) // 520 bits: the fault lands in block 1
	for name, seq := range map[string]string{
		"dip":             "())(",
		"dip/next block":  block + "())(()()",
		"dip/tail":        "()()()()" + "())(",
		"open":            "((",
		"open/next block": block + "((()()()",
		"open/tail":       "()()()()" + "((",
	} {
		bools := make([]bool, len(seq))
		for i, c := range seq {
			bools[i] = c == '('
		}
		if _, err := persisttest.Read(persisttest.Bytes(t, NewFromBools(bools)), Read); !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("%s (%d parens): want ErrCorrupt, got %v", name, len(seq), err)
		}
	}
	// The empty sequence is the one tree with no root minimum.
	if _, err := persisttest.Read(persisttest.Bytes(t, NewFromBools(nil)), Read); err != nil {
		t.Fatalf("empty sequence: %v", err)
	}
}
