// Package fmindex implements the FM-index self-index over a collection of
// texts (paper Section 3): Burrows–Wheeler transform with a wavelet-tree
// rank structure, backward search, regular position sampling for locating,
// and the Doc array that maps BWT end-markers to text identifiers with the
// fixed ordering "the terminator of the i-th text appears at F[i]".
//
// All the XPath text predicates of Section 3.2 are provided: starts-with,
// ends-with, equality, contains (global count, per-text count, reporting)
// and the lexicographic operators.
package fmindex

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sais"
	"repro/internal/wavelet"
)

// Index is the FM-index over a text collection.
type Index struct {
	bwt  *wavelet.Tree
	c    [257]int // c[x] = number of symbols < x in T (terminators are symbol 0)
	doc  []int32  // doc[r] = id of the text *starting* at the r-th $ of the BWT
	d    int      // number of texts
	n    int      // |T| including one terminator per text
	l    int      // sampling step
	bs   *bitvec.Vector
	ps   []int32        // global position samples, in bwt-rank order
	strt *bitvec.Sparse // bit at the global start position of each text
	lens []int32        // text lengths (without terminator)
}

// ErrNulByte reports a text containing the reserved terminator byte.
var ErrNulByte = errors.New("fmindex: text contains NUL byte (reserved terminator)")

// ErrTooLarge reports a text collection too long for the int32 position
// arithmetic of the suffix sorter: the total length including one
// terminator per text must stay below 2^31-1 symbols. It aliases
// sais.ErrTooLarge so either spelling matches with errors.Is.
var ErrTooLarge = sais.ErrTooLarge

// collectionSize returns |T| — the total length including one terminator
// per text — and validates it against the suffix sorter's int32 position
// limit, so NewCtx rejects an oversized collection before any sorting
// instead of silently corrupting the suffix array downstream.
func collectionSize(texts [][]byte) (int, error) {
	n := 0
	for _, t := range texts {
		n += len(t) + 1
	}
	if err := sais.CheckSize(n); err != nil {
		return 0, fmt.Errorf("fmindex: %w", err)
	}
	return n, nil
}

// NumTexts returns the number of texts d in the collection.
func (x *Index) NumTexts() int { return x.d }

// Size returns |T|, the total length including one terminator per text.
func (x *Index) Size() int { return x.n }

// SampleRate returns the text-position sampling step l: a locate walks
// about l/2 LF steps per occurrence.
func (x *Index) SampleRate() int { return x.l }

// TextLen returns the length of text id (without terminator).
func (x *Index) TextLen(id int) int { return int(x.lens[id]) }

// LF computes the last-to-first mapping for BWT row i.
func (x *Index) LF(i int) int {
	c := x.bwt.Access(i)
	if c == 0 {
		// Row of the terminator of the text preceding doc[r]: terminator
		// rows occupy F[0..d) ordered by text id.
		r := x.bwt.Rank(0, i)
		return int(x.doc[r]-1+int32(x.d)) % x.d
	}
	return x.c[c] + x.bwt.Rank(c, i)
}

// Step performs one backward-search step: it narrows the half-open row range
// [sp, ep) to rows whose suffixes are preceded by character c.
func (x *Index) Step(c byte, sp, ep int) (int, int) {
	return x.c[c] + x.bwt.Rank(c, sp), x.c[c] + x.bwt.Rank(c, ep)
}

// BackwardSearch returns the half-open BWT row range matching pattern p, or
// an empty range.
func (x *Index) BackwardSearch(p []byte) (int, int) {
	sp, ep := 0, x.n
	for i := len(p) - 1; i >= 0 && sp < ep; i-- {
		sp, ep = x.Step(p[i], sp, ep)
	}
	return sp, ep
}

// GlobalCount returns the total number of occurrences of p in T.
func (x *Index) GlobalCount(p []byte) int {
	sp, ep := x.BackwardSearch(p)
	if ep < sp {
		return 0
	}
	return ep - sp
}

// locateRow returns the global position in T of the suffix at BWT row i.
func (x *Index) locateRow(i int) int {
	steps := 0
	for {
		if x.bs.Get(i) {
			return int(x.ps[x.bs.Rank1(i)]) + steps
		}
		c := x.bwt.Access(i)
		if c == 0 {
			// Suffix starts at the beginning of text doc[r].
			r := x.bwt.Rank(0, i)
			return x.strt.Select1(int(x.doc[r])) + steps
		}
		i = x.c[c] + x.bwt.Rank(c, i)
		steps++
	}
}

// PosToText maps a global position of T to (text id, offset inside text).
func (x *Index) PosToText(p int) (int, int) {
	id := x.strt.Rank1(p+1) - 1
	return id, p - x.strt.Select1(id)
}

// Occurrence is a located pattern match.
type Occurrence struct {
	Text   int // text identifier
	Offset int // 0-based offset within the text
}

// LocateRow locates the suffix at BWT row i and maps it to a text position.
// It is the building block external searchers (e.g. the PSSM backtracking
// of Section 6.7) use to report matches from interval ranges.
func (x *Index) LocateRow(i int) Occurrence {
	g := x.locateRow(i)
	t, off := x.PosToText(g)
	return Occurrence{Text: t, Offset: off}
}

// Locate reports all occurrences of p, unordered.
func (x *Index) Locate(p []byte) []Occurrence {
	sp, ep := x.BackwardSearch(p)
	occs := make([]Occurrence, 0, max(0, ep-sp))
	for i := sp; i < ep; i++ {
		g := x.locateRow(i)
		t, off := x.PosToText(g)
		occs = append(occs, Occurrence{Text: t, Offset: off})
	}
	return occs
}

// Contains returns the sorted identifiers of the distinct texts containing p.
func (x *Index) Contains(p []byte) []int {
	sp, ep := x.BackwardSearch(p)
	ids := make([]int, 0, max(0, ep-sp))
	for i := sp; i < ep; i++ {
		t, _ := x.PosToText(x.locateRow(i))
		ids = append(ids, t)
	}
	sort.Ints(ids)
	return slices.Compact(ids)
}

// ContainsCount returns the number of distinct texts containing p.
func (x *Index) ContainsCount(p []byte) int { return len(x.Contains(p)) }

// ContainsAny reports whether any text contains p (existential query).
func (x *Index) ContainsAny(p []byte) bool {
	sp, ep := x.BackwardSearch(p)
	return ep > sp
}

// StartsWith returns the sorted ids of texts having p as a prefix. After the
// backward search, rows whose BWT character is the terminator correspond to
// texts starting with p; Doc yields their identifiers directly (Section 3.2).
func (x *Index) StartsWith(p []byte) []int {
	sp, ep := x.BackwardSearch(p)
	if ep <= sp {
		return nil
	}
	r0, r1 := x.bwt.Rank(0, sp), x.bwt.Rank(0, ep)
	ids := make([]int, 0, r1-r0)
	for r := r0; r < r1; r++ {
		ids = append(ids, int(x.doc[r]))
	}
	sort.Ints(ids)
	return ids
}

// StartsWithCount counts texts having p as a prefix without reporting them.
func (x *Index) StartsWithCount(p []byte) int {
	sp, ep := x.BackwardSearch(p)
	if ep <= sp {
		return 0
	}
	return x.bwt.Rank(0, ep) - x.bwt.Rank(0, sp)
}

// EndsWith returns the sorted ids of texts having p as a suffix. The search
// starts from the terminator rows F[0..d) (Section 3.2).
func (x *Index) EndsWith(p []byte) []int {
	sp, ep := x.endsWithRange(p)
	ids := make([]int, 0, ep-sp)
	for i := sp; i < ep; i++ {
		g := x.locateRow(i)
		t, _ := x.PosToText(g)
		ids = append(ids, t)
	}
	sort.Ints(ids)
	return ids
}

// EndsWithCount counts texts with suffix p in constant time after the search.
func (x *Index) EndsWithCount(p []byte) int {
	sp, ep := x.endsWithRange(p)
	return ep - sp
}

func (x *Index) endsWithRange(p []byte) (int, int) {
	sp, ep := 0, x.d // terminator rows
	for i := len(p) - 1; i >= 0 && sp < ep; i-- {
		sp, ep = x.Step(p[i], sp, ep)
	}
	if ep < sp {
		return 0, 0
	}
	return sp, ep
}

// Equals returns the sorted ids of texts exactly equal to p: an ends-with
// search followed by the starts-with mapping to terminators.
func (x *Index) Equals(p []byte) []int {
	sp, ep := x.endsWithRange(p)
	if ep <= sp {
		return nil
	}
	r0, r1 := x.bwt.Rank(0, sp), x.bwt.Rank(0, ep)
	ids := make([]int, 0, r1-r0)
	for r := r0; r < r1; r++ {
		ids = append(ids, int(x.doc[r]))
	}
	sort.Ints(ids)
	return ids
}

// EqualsCount counts texts equal to p.
func (x *Index) EqualsCount(p []byte) int {
	sp, ep := x.endsWithRange(p)
	if ep <= sp {
		return 0
	}
	return x.bwt.Rank(0, ep) - x.bwt.Rank(0, sp)
}

// lowerBound returns the BWT row insertion point of pattern p: the number of
// rows whose suffix is lexicographically smaller than p.
func (x *Index) lowerBound(p []byte) int {
	// Process the pattern backwards. When the range becomes empty the
	// pattern does not occur, but the steps still refine the insertion
	// point correctly (sp == ep is maintained by Step), so no special case
	// is needed (Section 3.2, operators <=, <, >, >=).
	sp, ep := 0, x.n
	for i := len(p) - 1; i >= 0; i-- {
		sp, ep = x.Step(p[i], sp, ep)
	}
	return sp
}

// LessThanCount returns the number of texts lexicographically smaller than p.
func (x *Index) LessThanCount(p []byte) int {
	sp := x.lowerBound(p)
	// Texts strictly below p are exactly the text-start rows under sp.
	return x.bwt.Rank(0, sp)
}

// LessEqCount returns the number of texts <= p.
func (x *Index) LessEqCount(p []byte) int { return x.LessThanCount(p) + x.EqualsCount(p) }

// GreaterThanCount returns the number of texts > p.
func (x *Index) GreaterThanCount(p []byte) int { return x.d - x.LessEqCount(p) }

// GreaterEqCount returns the number of texts >= p.
func (x *Index) GreaterEqCount(p []byte) int { return x.d - x.LessThanCount(p) }

// Extract reproduces text id from the self-index alone, walking the BWT
// backwards from the text's terminator row (Section 3.3), at O(log sigma)
// cost per symbol.
func (x *Index) Extract(id int) []byte {
	if id < 0 || id >= x.d {
		return nil
	}
	out := make([]byte, x.lens[id])
	i := id // row of terminator of text id
	for k := len(out) - 1; k >= 0; k-- {
		c := x.bwt.Access(i)
		out[k] = c
		i = x.c[c] + x.bwt.Rank(c, i)
	}
	return out
}

// SizeInBytes reports the memory footprint of the structure.
func (x *Index) SizeInBytes() int {
	return x.bwt.SizeInBytes() + 257*8 + 4*len(x.doc) + x.bs.SizeInBytes() +
		4*len(x.ps) + x.strt.SizeInBytes() + 4*len(x.lens) + 64
}

func (x *Index) String() string {
	return fmt.Sprintf("fmindex[n=%d d=%d l=%d]", x.n, x.d, x.l)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
