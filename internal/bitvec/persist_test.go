package bitvec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/persist"
	"repro/internal/persist/persisttest"
)

func TestVectorSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 5000} {
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		v.Build()
		got, err := persisttest.Read(persisttest.Bytes(t, v), ReadVector)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != v.Len() || got.Ones() != v.Ones() {
			t.Fatalf("n=%d: len/ones mismatch", n)
		}
		for i := 0; i <= n; i++ {
			if got.Rank1(i) != v.Rank1(i) {
				t.Fatalf("n=%d Rank1(%d)", n, i)
			}
		}
		for j := 0; j < v.Ones(); j++ {
			if got.Select1(j) != v.Select1(j) {
				t.Fatalf("n=%d Select1(%d)", n, j)
			}
		}
	}
}

func TestSparseSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ n, m int }{
		{0, 0}, {10, 0}, {1, 1}, {100, 5}, {1 << 16, 100}, {1000, 1000},
	} {
		positions := rng.Perm(tc.n)[:tc.m]
		if tc.m > 0 {
			positions = append([]int(nil), positions...)
		}
		sortInts(positions)
		s := NewSparse(tc.n, positions)
		got, err := persisttest.Read(persisttest.Bytes(t, s), ReadSparse)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if got.Len() != s.Len() || got.Ones() != s.Ones() {
			t.Fatalf("n=%d m=%d: len/ones mismatch", tc.n, tc.m)
		}
		for j := 0; j < s.Ones(); j++ {
			if got.Select1(j) != s.Select1(j) {
				t.Fatalf("Select1(%d)", j)
			}
		}
		for i := 0; i <= tc.n; i += 1 + tc.n/97 {
			if got.Rank1(i) != s.Rank1(i) {
				t.Fatalf("Rank1(%d)", i)
			}
		}
	}
}

// TestVectorLoadRebuildsSelectSamples proves the select samples are a
// derived structure: they are not part of the on-disk payload (same format
// version as the seed), Read rebuilds them identically to a fresh Build,
// and re-saving a loaded vector is byte-identical to the original payload.
func TestVectorLoadRebuildsSelectSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 511, 4096, 1 << 16} {
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		v.Build()
		saved := persisttest.Bytes(t, v)
		got, err := persisttest.Read(saved, ReadVector)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.selSamp1) != len(v.selSamp1) || len(got.selSamp0) != len(v.selSamp0) {
			t.Fatalf("n=%d: sample counts differ after load: %d/%d want %d/%d",
				n, len(got.selSamp1), len(got.selSamp0), len(v.selSamp1), len(v.selSamp0))
		}
		for i := range v.selSamp1 {
			if got.selSamp1[i] != v.selSamp1[i] {
				t.Fatalf("n=%d: selSamp1[%d] differs", n, i)
			}
		}
		for i := range v.selSamp0 {
			if got.selSamp0[i] != v.selSamp0[i] {
				t.Fatalf("n=%d: selSamp0[%d] differs", n, i)
			}
		}
		if !bytes.Equal(saved, persisttest.Bytes(t, got)) {
			t.Fatalf("n=%d: re-saved payload not byte-identical", n)
		}
	}
}

func TestVectorLoadCorrupt(t *testing.T) {
	v := FromBools([]bool{true, false, true, true})
	data := persisttest.Bytes(t, v)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := persisttest.Read(b, ReadVector)
		return err
	})
	// Wrong format byte.
	if _, err := persisttest.Read(persisttest.Flip(data, 0), ReadVector); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad format: %v", err)
	}
	// Word count inconsistent with the bit length.
	bad := persisttest.Flip(data, 1)
	bad[1] = 200 // n = 200 needs 4 words, payload has 1
	if _, err := persisttest.Read(bad, ReadVector); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad word count: %v", err)
	}
}

func TestSparseLoadCorrupt(t *testing.T) {
	s := NewSparse(1000, []int{3, 77, 500, 999})
	data := persisttest.Bytes(t, s)
	persisttest.Sweep(t, data, func(b []byte) error {
		_, err := persisttest.Read(b, ReadSparse)
		return err
	})
	if _, err := persisttest.Read(persisttest.Flip(data, 0), ReadSparse); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("bad format: %v", err)
	}
}

// TestSparseLoadMaxValue patches the stored maximum (bytes 25-32: after the
// format byte and the n, m and lowBits words) to values that are still
// below n. Successor exits early on the maximum, so every one of them must
// be rejected, not loaded.
func TestSparseLoadMaxValue(t *testing.T) {
	s := NewSparse(1000, []int{3, 77, 500, 900})
	data := persisttest.Bytes(t, s)
	if got := binary.LittleEndian.Uint64(data[25:]); got != 900 {
		t.Fatalf("stored maximum %d at offset 25, want 900", got)
	}
	for _, v := range []uint64{0, 500, 899, 901, 999} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint64(bad[25:], v)
		if _, err := persisttest.Read(bad, ReadSparse); !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("maximum %d: %v, want ErrCorrupt", v, err)
		}
	}
	empty := persisttest.Bytes(t, NewSparse(1000, nil))
	binary.LittleEndian.PutUint64(empty[25:], 7)
	if _, err := persisttest.Read(empty, ReadSparse); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("maximum 7 without ones: %v, want ErrCorrupt", err)
	}
}
