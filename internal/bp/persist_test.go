package bp

import (
	"errors"
	"math/rand"
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
	for cut := 0; cut < len(data); cut++ {
		if _, err := persisttest.Read(data[:cut], Read); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
	// An odd parenthesis count cannot be a tree.
	bad := persisttest.Flip(data, 2)
	bad[2] = 7 // vector length field (offset: parens format byte + vector format byte)
	if _, err := persisttest.Read(bad, Read); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("odd count: %v", err)
	}
	for i := range data {
		if _, err := persisttest.Read(persisttest.Flip(data, i), Read); err != nil && !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("byte %d: %v", i, err)
		}
	}
}
