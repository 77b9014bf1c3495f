package tags

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

func TestSequenceSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, ids int }{
		{0, 1}, {1, 1}, {100, 2}, {1000, 17}, {4096, 300},
	} {
		ids := make([]int32, tc.n)
		for i := range ids {
			ids[i] = int32(rng.Intn(tc.ids))
		}
		s := Build(ids, tc.ids)
		got, err := persisttest.Read(persisttest.Bytes(t, s), Read)
		if err != nil {
			t.Fatalf("n=%d ids=%d: %v", tc.n, tc.ids, err)
		}
		if got.Len() != s.Len() || got.NumIDs() != s.NumIDs() {
			t.Fatalf("dimensions")
		}
		for i := 0; i < tc.n; i++ {
			if got.Access(i) != ids[i] {
				t.Fatalf("Access(%d)", i)
			}
		}
		for id := int32(0); int(id) < tc.ids; id++ {
			if got.Count(id) != s.Count(id) {
				t.Fatalf("Count(%d)", id)
			}
			for p := 0; p <= tc.n; p += 1 + tc.n/53 {
				if got.Rank(id, p) != s.Rank(id, p) {
					t.Fatalf("Rank(%d,%d)", id, p)
				}
				if got.NextOccurrence(id, p) != s.NextOccurrence(id, p) {
					t.Fatalf("NextOccurrence(%d,%d)", id, p)
				}
			}
		}
	}
}

func TestSequenceLoadCorrupt(t *testing.T) {
	s := Build([]int32{0, 1, 2, 1, 0, 3}, 4)
	data := persisttest.Bytes(t, s)
	for cut := 0; cut < len(data); cut++ {
		if _, err := persisttest.Read(data[:cut], Read); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
	// Width inconsistent with the id space.
	bad := persisttest.Flip(data, 17)
	bad[17] = 33 // width field (format byte + n + maxTagID)
	if _, err := persisttest.Read(bad, Read); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad width: %v", err)
	}
	for i := range data {
		if _, err := persisttest.Read(persisttest.Flip(data, i), Read); err != nil && !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("byte %d: %v", i, err)
		}
	}
}
