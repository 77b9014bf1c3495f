package fmindex

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// On-disk layout: the sampling metadata (Doc array, sampled positions and
// the sampled-row bitmap) plus the wavelet tree over the BWT, stored
// structurally so that loading attaches the node bitmaps without re-running
// the symbol distribution pass, let alone the suffix sort. Text boundaries
// are not stored here: the container's plain text store records where every
// text ends, and the loader attaches those offsets with SetTextEnds.

const indexFormat = 1

// seqWavelet is the sequence payload kind byte. It is the only kind; the
// raw BWT string that kind 0 once held is rejected as corrupt.
const seqWavelet = 1

// Store serializes the index into pw.
func (x *Index) Store(pw *persist.Writer) {
	pw.Byte(indexFormat)
	pw.Int(x.n)
	pw.Int(x.d)
	pw.Int(x.l)
	pw.Int32s(x.doc)
	pw.Int32s(x.ps)
	x.bs.Store(pw)
	pw.Byte(seqWavelet)
	x.bwt.Store(pw)
}

// Read reads an index written by Store. On corrupt input Read returns nil
// and leaves the error in pr. The index answers no query that maps a row
// or a position to its text until SetTextEnds attaches the boundaries.
func Read(pr *persist.MReader) *Index {
	if pr.Check(pr.Byte() == indexFormat, "unknown fm-index format") != nil {
		return nil
	}
	x := &Index{}
	x.n = pr.Int()
	x.d = pr.Len(4, math.MaxInt32) // one int32 Doc entry per text
	x.l = pr.Int()
	x.doc = pr.Int32s()
	x.ps = pr.Int32s()
	x.bs = bitvec.ReadVector(pr)
	if pr.Err() != nil {
		return nil
	}
	// Anchor n to the sampled-row bitmap before the sequence decode: the
	// bitmap's length is backed by actually-read words, so a corrupt n is
	// rejected here.
	if pr.Check(x.bs.Len() == x.n, "fm-index length mismatch") != nil {
		return nil
	}
	if pr.Check(len(x.doc) == x.d && x.bs.Ones() == len(x.ps) && x.l > 0, "fm-index component mismatch") != nil {
		return nil
	}
	if pr.Check(allBelow(x.doc, x.d), "doc identifier out of range") != nil ||
		pr.Check(allBelow(x.ps, x.n), "sampled position out of range") != nil {
		return nil
	}
	if pr.Check(pr.Byte() == seqWavelet, "unknown bwt sequence kind") != nil {
		return nil
	}
	if x.bwt = wavelet.Read(pr); x.bwt == nil {
		return nil
	}
	if pr.Check(x.bwt.Len() == x.n && x.bwt.Count(0) == x.d, "fm-index component mismatch") != nil {
		return nil
	}
	for c := 0; c < 256; c++ {
		x.c[c+1] = x.c[c] + x.bwt.Count(byte(c))
	}
	return x
}

// SetTextEnds attaches the cumulative end offsets of the texts, terminators
// excluded: the plain text store's offsets, which a loaded index aliases
// instead of storing its own. The offsets must be monotone (the text
// decoder checks that). SetTextEnds reports false, and attaches nothing,
// when they do not describe this index's texts: one offset per text, and
// the texts plus one terminator each add up to |T|.
func (x *Index) SetTextEnds(ends []uint64) bool {
	total := uint64(0)
	if len(ends) > 0 {
		total = ends[len(ends)-1] + uint64(len(ends))
	}
	if len(ends) != x.d || total != uint64(x.n) {
		return false
	}
	x.ends = ends
	return true
}

// allBelow reports whether every value of a lies in [0, hi).
func allBelow(a []int32, hi int) bool {
	for _, v := range a {
		if v < 0 || int(v) >= hi {
			return false
		}
	}
	return true
}
