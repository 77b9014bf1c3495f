// Package wordindex implements the word-based text self-index of Section
// 6.6.2 (after Fariña et al.): the text collection is tokenized and viewed
// as a sequence over a large word alphabet, and a word-level suffix array
// answers phrase queries at word granularity. Indexing and query speed are
// traded for word-boundary-only matching, exactly the trade-off the paper
// demonstrates by swapping this index into SXSI for the W01-W10 queries.
package wordindex

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/sais"
)

// ErrTooLarge reports a collection whose token sequence (including one
// terminator per text) is too long for the suffix sorter's int32 positions;
// it aliases sais.ErrTooLarge so either spelling matches with errors.Is.
var ErrTooLarge = sais.ErrTooLarge

// Index is a word-level suffix array over a text collection.
type Index struct {
	vocab  map[string]int32
	seq    []int32 // word ids (offset by d) with per-text terminators 0..d-1
	sa     []int32
	textOf []int32 // text id of each sequence position
	d      int
}

// IsWordByte reports whether c belongs to a word: ASCII letters and
// digits, plus every byte ≥ 0x80 so multi-byte UTF-8 sequences stay
// inside one word. This single definition is shared by the word-level
// suffix array here and by the collection search tier (package search),
// so the two always agree on word boundaries.
func IsWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 0x80
}

// ScanWords calls fn with the byte range [start, end) of each word in
// text — maximal runs of word bytes (IsWordByte); everything else is a
// separator. It is the allocation-free scanner under Tokenize, exported
// so other tokenizers (the search tier's case-folding one) can share the
// boundary rules without sharing the token representation.
func ScanWords(text []byte, fn func(start, end int)) {
	start := -1
	for i := 0; i <= len(text); i++ {
		var c byte
		if i < len(text) {
			c = text[i]
		}
		if IsWordByte(c) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			fn(start, i)
			start = -1
		}
	}
}

// Tokenize splits text into words: maximal runs of letters and digits.
// Everything else is a separator.
func Tokenize(text []byte) []string {
	var words []string
	ScanWords(text, func(start, end int) {
		words = append(words, string(text[start:end]))
	})
	return words
}

// New builds the index over the texts. Text identifiers follow slice order.
// Collections whose token sequence would overflow the suffix sorter's int32
// positions return ErrTooLarge.
func New(texts [][]byte) (*Index, error) {
	ix := &Index{vocab: map[string]int32{}, d: len(texts)}
	d := int32(len(texts))
	for id, t := range texts {
		for _, w := range Tokenize(t) {
			wid, ok := ix.vocab[w]
			if !ok {
				wid = int32(len(ix.vocab))
				ix.vocab[w] = wid
			}
			ix.seq = append(ix.seq, d+wid)
			ix.textOf = append(ix.textOf, int32(id))
		}
		ix.seq = append(ix.seq, int32(id)) // terminator
		ix.textOf = append(ix.textOf, int32(id))
	}
	var err error
	if ix.sa, err = sais.Compute(context.Background(), ix.seq, ix.d+len(ix.vocab)); err != nil {
		return nil, fmt.Errorf("wordindex: %w", err)
	}
	return ix, nil
}

// NumWords returns the total token count (including terminators).
func (ix *Index) NumWords() int { return len(ix.seq) }

// VocabSize returns the number of distinct words.
func (ix *Index) VocabSize() int { return len(ix.vocab) }

// phraseIDs converts a phrase to word ids; ok is false when some word does
// not occur in the collection at all.
func (ix *Index) phraseIDs(phrase string) ([]int32, bool) {
	words := Tokenize([]byte(phrase))
	if len(words) == 0 {
		return nil, false
	}
	ids := make([]int32, len(words))
	for i, w := range words {
		wid, ok := ix.vocab[w]
		if !ok {
			return nil, false
		}
		ids[i] = int32(ix.d) + wid
	}
	return ids, true
}

// saRange returns the half-open suffix-array range of suffixes starting
// with the id sequence p.
func (ix *Index) saRange(p []int32) (int, int) {
	cmpGE := func(suffix int) bool {
		// seq[suffix:] >= p ?
		for k, c := range p {
			if suffix+k >= len(ix.seq) {
				return false // shorter prefix: smaller
			}
			if ix.seq[suffix+k] != c {
				return ix.seq[suffix+k] > c
			}
		}
		return true // p is a prefix: >= p
	}
	cmpGT := func(suffix int) bool {
		for k, c := range p {
			if suffix+k >= len(ix.seq) {
				return false
			}
			if ix.seq[suffix+k] != c {
				return ix.seq[suffix+k] > c
			}
		}
		return false // p is a prefix: not > p
	}
	lo := sort.Search(len(ix.sa), func(i int) bool { return cmpGE(int(ix.sa[i])) })
	hi := sort.Search(len(ix.sa), func(i int) bool { return cmpGT(int(ix.sa[i])) })
	return lo, hi
}

// CountOccurrences returns the number of phrase occurrences (word-aligned).
func (ix *Index) CountOccurrences(phrase string) int {
	ids, ok := ix.phraseIDs(phrase)
	if !ok {
		return 0
	}
	lo, hi := ix.saRange(ids)
	return hi - lo
}

// ContainsPhrase returns the sorted distinct text ids containing the phrase
// as consecutive words.
func (ix *Index) ContainsPhrase(phrase string) []int32 {
	ids, ok := ix.phraseIDs(phrase)
	if !ok {
		return nil
	}
	lo, hi := ix.saRange(ids)
	seen := map[int32]struct{}{}
	for i := lo; i < hi; i++ {
		seen[ix.textOf[ix.sa[i]]] = struct{}{}
	}
	out := make([]int32, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// SizeInBytes reports the memory footprint of the structure.
func (ix *Index) SizeInBytes() int {
	sz := 4*len(ix.seq) + 4*len(ix.sa) + 4*len(ix.textOf) + 48
	for w := range ix.vocab {
		sz += len(w) + 20
	}
	return sz
}
