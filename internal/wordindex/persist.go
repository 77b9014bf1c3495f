package wordindex

import "repro/internal/persist"

// On-disk layout: the vocabulary (in id order), the id sequence, the
// word-level suffix array and the per-position text ids. Loading restores
// the structure directly, skipping the suffix sort of New. The int32
// arrays sit on 8-byte offsets, so Read aliases them out of the buffer.

// wordIndexFormat is the layout version byte. Format 1 was an unaligned
// layout that is no longer read.
const wordIndexFormat = 2

// Store serializes the index into pw. The writer's first byte must sit on
// an 8-byte offset (stream start or a container section) for the
// alignment to carry to disk.
func (ix *Index) Store(pw *persist.Writer) {
	pw.Byte(wordIndexFormat)
	pw.Int(ix.d)
	words := make([]string, len(ix.vocab))
	for w, id := range ix.vocab {
		words[id] = w
	}
	pw.Int(len(words))
	for _, w := range words {
		pw.String(w)
	}
	pw.Int32s(ix.seq)
	pw.Int32s(ix.sa)
	pw.Int32s(ix.textOf)
}

// Read reads an index written by Store. On corrupt input it returns nil
// and leaves the error in pr.
func Read(pr *persist.MReader) *Index {
	if pr.Check(pr.Byte() == wordIndexFormat, "unknown word index format") != nil {
		return nil
	}
	ix := &Index{vocab: map[string]int32{}}
	ix.d = pr.Int()
	nWords := pr.Int()
	if pr.Err() != nil {
		return nil
	}
	for i := 0; i < nWords; i++ {
		w := pr.String()
		if pr.Err() != nil {
			return nil
		}
		ix.vocab[w] = int32(i)
	}
	if pr.Check(len(ix.vocab) == nWords, "duplicate vocabulary word") != nil {
		return nil
	}
	ix.seq = pr.Int32s()
	ix.sa = pr.Int32s()
	ix.textOf = pr.Int32s()
	if pr.Err() != nil {
		return nil
	}
	n := len(ix.seq)
	ok := len(ix.sa) == n && len(ix.textOf) == n
	if pr.Check(ok, "word index array lengths mismatch") != nil {
		return nil
	}
	maxID := int32(ix.d + nWords)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		if pr.Check(ix.seq[i] >= 0 && ix.seq[i] < maxID, "word id out of range") != nil {
			return nil
		}
		p := ix.sa[i]
		if pr.Check(p >= 0 && int(p) < n && !seen[p], "suffix array is not a permutation") != nil {
			return nil
		}
		seen[p] = true
		if pr.Check(ix.textOf[i] >= 0 && int(ix.textOf[i]) < ix.d, "text id out of range") != nil {
			return nil
		}
	}
	return ix
}
