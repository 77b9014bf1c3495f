// Package tags implements the tag sequence of the tree index (paper Section
// 4.1.2): the sequence Tag of opening/closing tag identifiers aligned with
// the parentheses, stored as a packed array for O(1) access plus one sparse
// "sarray" row per distinct tag for rank/select. These power the jump
// operations TaggedDesc, TaggedPrec and TaggedFoll of Section 4.2.2.
//
// A caller that jumps forward through one tag's occurrences, as the
// automaton run does, keeps a finger: Successor returns an occurrence with
// its index in the tag's row, and Step goes from there to the next
// occurrence without a select. The rows themselves stay private.
package tags

import (
	"math/bits"

	"repro/internal/bitvec"
)

// Sequence stores 2n tag identifiers (one per parenthesis). Identifiers are
// in [0, 2t): even for any value; the caller decides the open/close
// convention. Access is O(1). Select is one select on a row's high stream;
// Rank, NextOccurrence and Successor are one select plus a scan of one
// Elias–Fano bucket, O(1) expected and logarithmic at worst (see
// bitvec.Sparse); Step is a next-set-bit scan; and PrevOccurrence is a Rank
// and a Select.
type Sequence struct {
	packed   []uint64
	width    uint // bits per entry
	n        int
	rows     []*bitvec.Sparse // one per tag id
	maxTagID int
}

// Build creates the sequence from the raw identifier slice; ids must be in
// [0, numIDs).
func Build(ids []int32, numIDs int) *Sequence {
	s := &Sequence{n: len(ids), maxTagID: numIDs}
	w := uint(bits.Len(uint(max(numIDs-1, 1))))
	if w == 0 {
		w = 1
	}
	s.width = w
	s.packed = make([]uint64, (len(ids)*int(w)+63)/64)
	positions := make([][]int, numIDs)
	for i, id := range ids {
		s.set(i, uint64(id))
		positions[id] = append(positions[id], i)
	}
	s.rows = make([]*bitvec.Sparse, numIDs)
	for id := 0; id < numIDs; id++ {
		s.rows[id] = bitvec.NewSparse(len(ids)+1, positions[id])
	}
	return s
}

func (s *Sequence) set(i int, v uint64) {
	bitPos := i * int(s.width)
	w, off := bitPos>>6, uint(bitPos&63)
	s.packed[w] |= v << off
	if off+s.width > 64 {
		s.packed[w+1] |= v >> (64 - off)
	}
}

// Access returns the tag id at position i.
func (s *Sequence) Access(i int) int32 {
	bitPos := i * int(s.width)
	w, off := bitPos>>6, uint(bitPos&63)
	v := s.packed[w] >> off
	if off+s.width > 64 {
		v |= s.packed[w+1] << (64 - off)
	}
	return int32(v & (1<<s.width - 1))
}

// Len returns the sequence length (2n).
func (s *Sequence) Len() int { return s.n }

// NumIDs returns the tag identifier space size.
func (s *Sequence) NumIDs() int { return s.maxTagID }

// Rank returns the number of occurrences of tag in [0, i).
func (s *Sequence) Rank(tag int32, i int) int {
	if int(tag) >= len(s.rows) {
		return 0
	}
	return s.rows[tag].Rank1(i)
}

// Select returns the position of the (j+1)-th occurrence of tag, or -1.
func (s *Sequence) Select(tag int32, j int) int {
	if int(tag) >= len(s.rows) {
		return -1
	}
	return s.rows[tag].Select1(j)
}

// Count returns the total number of occurrences of tag.
func (s *Sequence) Count(tag int32) int {
	if int(tag) >= len(s.rows) {
		return 0
	}
	return s.rows[tag].Ones()
}

// NextOccurrence returns the smallest position >= p holding tag, or -1.
// This is the primitive behind TaggedDesc/TaggedFoll jumps.
func (s *Sequence) NextOccurrence(tag int32, p int) int {
	if int(tag) >= len(s.rows) {
		return -1
	}
	return s.rows[tag].NextOne(p)
}

// Successor returns the index k among tag's occurrences, and the position,
// of the first occurrence at or after p, or (Count(tag), -1) when there is
// none. It costs what NextOccurrence does.
func (s *Sequence) Successor(tag int32, p int) (k, pos int) {
	if int(tag) >= len(s.rows) {
		return 0, -1
	}
	return s.rows[tag].Successor(p)
}

// Step returns the position of tag's occurrence k+1, given that its
// occurrence k is at pos, or -1 when that was the last: one next-set-bit
// scan of the row, with no select (see bitvec.Sparse.Step).
func (s *Sequence) Step(tag int32, k, pos int) int {
	return s.rows[tag].Step(k, pos)
}

// PrevOccurrence returns the largest position < p holding tag, or -1.
func (s *Sequence) PrevOccurrence(tag int32, p int) int {
	if int(tag) >= len(s.rows) {
		return -1
	}
	r := s.rows[tag].Rank1(p)
	if r == 0 {
		return -1
	}
	return s.rows[tag].Select1(r - 1)
}

// SizeInBytes reports the memory footprint of the structure.
func (s *Sequence) SizeInBytes() int {
	sz := 8*len(s.packed) + 48
	for _, r := range s.rows {
		sz += r.SizeInBytes()
	}
	return sz
}
