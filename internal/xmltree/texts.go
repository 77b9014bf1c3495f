package xmltree

import (
	"bytes"
	"math"
	"math/bits"
)

// TextStore is the redundant plain-text collection of Section 3.4: the texts
// concatenated in one blob, with their cumulative end offsets, sliced on
// demand. The parser appends every text to the blob as it reads it; a loaded
// store aliases both arrays in the file image, so restoring millions of
// texts costs nothing at open time and no per-text headers are ever
// materialized. The scans of the text predicates (Contains, EndsWith) run
// over the blob in one pass.
type TextStore struct {
	blob []byte   // the texts, concatenated…
	offs []uint64 // …and their cumulative end offsets (len = text count)
}

// NewTextStore wraps a concatenated blob with cumulative end offsets, which
// must be monotone and end at len(blob): the loaders validate this before
// construction, and Get relies on it.
func NewTextStore(blob []byte, offs []uint64) *TextStore {
	return &TextStore{blob: blob, offs: offs}
}

// Len returns the number of texts.
func (ts *TextStore) Len() int { return len(ts.offs) }

// Get returns text id without copying.
func (ts *TextStore) Get(id int) []byte {
	lo := uint64(0)
	if id > 0 {
		lo = ts.offs[id-1]
	}
	hi := ts.offs[id]
	return ts.blob[lo:hi:hi]
}

// All materializes the collection as one slice per text (sharing the
// underlying bytes). Intended for bulk consumers like the FM-index builder
// and the word index; query paths should use Get.
func (ts *TextStore) All() [][]byte {
	out := make([][]byte, len(ts.offs))
	for i := range out {
		out[i] = ts.Get(i)
	}
	return out
}

// SizeInBytes reports the memory footprint (content plus offsets).
func (ts *TextStore) SizeInBytes() int { return len(ts.blob) + 8*len(ts.offs) }

// Contains adds to set the id of every text that contains p: Occurrences
// with no joined texts, skipping to the next text after each match.
func (ts *TextStore) Contains(p []byte, rare int, set TextSet) {
	if len(p) == 0 {
		for id := range ts.offs {
			set.Add(id)
		}
		return
	}
	ts.Occurrences(p, rare, nil, func(id, _ int) bool { set.Add(id); return false })
}

// Occurrences calls fn with the text ids of the first and last byte of every
// occurrence of p (non-empty), overlapping ones included, in the order of
// their byte p[rare] in the blob. The texts in join match as one
// concatenation that leaves the other texts out; every other text matches on
// its own. When fn returns false the pass skips to the texts after last.
// bytes.IndexByte runs to each blob occurrence of p[rare]; without join, a
// candidate the blob does not confirm (first byte, last byte, bytes.Equal)
// costs no text-id lookup. A window that crosses a text end matches only by
// walking the joined texts (joined). Callers pick the literal's rarest byte
// (Doc.RareByte): the fewer candidates, the faster the pass.
func (ts *TextStore) Occurrences(p []byte, rare int, join TextSet, fn func(first, last int) bool) {
	blob, offs, m, b := ts.blob, ts.offs, len(p), p[rare]
	id := 0 // a text at or before the candidate's first byte: candidates only move right
	for i := rare; i < len(blob); i++ {
		k := bytes.IndexByte(blob[i:], b)
		if k < 0 {
			return
		}
		i += k
		start := i - rare
		if start+m > len(blob) {
			return // a joined occurrence spans at least as many blob bytes
		}
		ok := blob[start] == p[0] && blob[start+m-1] == p[m-1] && bytes.Equal(blob[start:start+m], p)
		if !ok && join == nil {
			continue
		}
		first, last := -1, -1
		if id = textAt(offs, id, uint64(start)); start+m <= int(offs[id]) { // inside one text
			if ok {
				first, last = id, id
			}
		} else if cur := textAt(offs, id, uint64(i)); join.Has(cur) { // may cross text ends
			first, last = ts.joined(p, rare, i, cur, join)
		}
		if first >= 0 && !fn(first, last) {
			i = int(offs[last]) + rare - 1 // the next candidate starts in a later text
		}
	}
}

// joined matches p in the concatenation of the join texts with p[rare] at
// blob offset i, which lies in text cur (in join), comparing outward from it
// one text at a time. It returns the text ids of the occurrence's first and
// last byte, or -1, -1.
func (ts *TextStore) joined(p []byte, rare, i, cur int, join TextSet) (first, last int) {
	text := ts.Get(cur)
	k := i - int(ts.offs[cur]) + len(text) // p[rare]'s offset in text
	head, before := p[:rare], text[:k]
	for first = cur; ; before = ts.Get(first) {
		n := min(len(head), len(before))
		if !bytes.Equal(head[len(head)-n:], before[len(before)-n:]) {
			return -1, -1
		}
		if head = head[:len(head)-n]; len(head) == 0 {
			break
		}
		for first--; first >= 0 && !join.Has(first); first-- {
		}
		if first < 0 {
			return -1, -1
		}
	}
	tail, after := p[rare:], text[k:]
	for last = cur; ; after = ts.Get(last) {
		n := min(len(tail), len(after))
		if !bytes.Equal(tail[:n], after[:n]) {
			return -1, -1
		}
		if tail = tail[n:]; len(tail) == 0 {
			break
		}
		for last++; last < len(ts.offs) && !join.Has(last); last++ {
		}
		if last == len(ts.offs) {
			return -1, -1
		}
	}
	return first, last
}

// textAt returns the id of the text holding blob byte pos, the first id at
// or after from whose end offset exceeds pos, galloping forward from from.
func textAt(offs []uint64, from int, pos uint64) int {
	if offs[from] > pos {
		return from
	}
	lo, hi := from, from+1 // offs[lo] <= pos
	for step := 1; hi < len(offs) && offs[hi] <= pos; step *= 2 {
		lo, hi = hi, hi+step
	}
	hi = min(hi, len(offs)-1) // pos < len(blob) = offs[len-1]: hi holds it
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if offs[mid] > pos {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// EndsWith adds to set the id of every text that ends with p: one suffix
// compare per text, at its end offset.
func (ts *TextStore) EndsWith(p []byte, set TextSet) {
	m, start := uint64(len(p)), uint64(0)
	for id, end := range ts.offs {
		if end-start >= m && bytes.Equal(ts.blob[end-m:end], p) {
			set.Add(id)
		}
		start = end
	}
}

// RareByte returns the index in p of the byte that occurs least often in the
// document's texts, by the FM-index's one-symbol counts (the first such byte
// on a tie, the last byte without an FM-index): the prefilter byte of
// TextStore.Contains, after the rare-byte heuristic of Rust's memchr::memmem.
func (d *Doc) RareByte(p []byte) int {
	if d.FM == nil || len(p) == 0 {
		return max(0, len(p)-1)
	}
	best, fewest := 0, math.MaxInt
	for i := range p {
		if n := d.FM.GlobalCount(p[i : i+1]); n < fewest {
			best, fewest = i, n
		}
	}
	return best
}

// TextSet is a set of text ids, one bit per text of the document. The nil set
// is empty.
type TextSet []uint64

// NewTextSet returns an empty set over n texts.
func NewTextSet(n int) TextSet { return make(TextSet, (n+63)/64) }

// Add puts id in the set.
func (s TextSet) Add(id int) { s[id>>6] |= 1 << uint(id&63) }

// Has reports whether id is in the set.
func (s TextSet) Has(id int) bool {
	w := id >> 6
	return w < len(s) && s[w]&(1<<uint(id&63)) != 0
}

// First returns the smallest id in the set within [lo, hi), or -1.
func (s TextSet) First(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<uint(lo&63) - 1)
	for {
		if word != 0 {
			if id := w<<6 + bits.TrailingZeros64(word); id < hi {
				return id
			}
			return -1
		}
		if w++; w >= len(s) || w<<6 >= hi {
			return -1
		}
		word = s[w]
	}
}

// Len returns the number of ids in the set.
func (s TextSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// OwnTextID returns the text id of node x when x is a text leaf or its first
// child is one, from one rank of the leaf bitmap and its bits at x and x+1;
// ok is false otherwise. For a node that holds one text (a text leaf, a
// pure-text element without attributes, an attribute node) it is the whole
// range TextIDs finds with a FindClose and two ranks.
func (d *Doc) OwnTextID(x int) (id int, ok bool) {
	if d.leafB.Get(x) || d.leafB.Get(x+1) {
		return d.leafB.Rank1(x), true
	}
	return 0, false
}
