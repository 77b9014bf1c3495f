// Package rlfm implements a run-length encoded FM-index rank sequence
// (Mäkinen–Navarro RLFM), the stand-in for the RLCSA the paper plugs in for
// highly repetitive biological collections (Section 6.7). Space is
// proportional to the number of runs of the BWT rather than its length, so
// collections whose exons repeat across many transcripts compress well.
//
// The FM-index does not use it: on this repository's BioXML corpus the
// run-length sequence measured larger and slower than the wavelet tree, so
// it is kept only as a benchmark artefact whose rank cost the layer
// benchmark reports beside the wavelet tree's.
package rlfm

import (
	"repro/internal/bitvec"
	"repro/internal/wavelet"
)

// Sequence is the run-length rank/access structure over a byte string.
type Sequence struct {
	n     int
	heads *wavelet.Tree  // one symbol per run, in BWT order
	b     *bitvec.Vector // marks run starts in the BWT domain
	bc    *bitvec.Vector // run lengths grouped by symbol: 1 0^{len-1} each
	// cRuns[c]  = number of runs of symbols < c
	// cExp[c]   = total expanded length of runs of symbols < c
	cRuns [257]int
	cExp  [257]int
	count [256]int
}

// New builds the structure from the raw sequence (typically a BWT).
func New(s []byte) *Sequence {
	q := &Sequence{n: len(s)}
	// Collect runs.
	type run struct {
		sym byte
		len int
	}
	var runs []run
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		runs = append(runs, run{sym: s[i], len: j - i})
		q.count[s[i]] += j - i
		i = j
	}
	heads := make([]byte, len(runs))
	b := bitvec.New(len(s))
	pos := 0
	for i, r := range runs {
		heads[i] = r.sym
		b.Set(pos)
		pos += r.len
	}
	b.Build()
	q.heads = wavelet.New(heads)
	q.b = b

	// Group run lengths by symbol.
	var runsPerSym [256]int
	var expPerSym [256]int
	for _, r := range runs {
		runsPerSym[r.sym]++
		expPerSym[r.sym] += r.len
	}
	for c := 0; c < 256; c++ {
		q.cRuns[c+1] = q.cRuns[c] + runsPerSym[c]
		q.cExp[c+1] = q.cExp[c] + expPerSym[c]
	}
	bc := bitvec.New(len(s))
	// For each symbol in order, lay out its runs' lengths as 1 0^{len-1}.
	offset := make([]int, 256)
	for c := 0; c < 256; c++ {
		offset[c] = q.cExp[c]
	}
	for _, r := range runs {
		bc.Set(offset[r.sym])
		offset[r.sym] += r.len
	}
	bc.Build()
	q.bc = bc
	return q
}

// Len returns the sequence length.
func (q *Sequence) Len() int { return q.n }

// Count returns the number of occurrences of c.
func (q *Sequence) Count(c byte) int { return q.count[c] }

// Access returns the symbol at position i.
func (q *Sequence) Access(i int) byte {
	return q.heads.Access(q.b.Rank1(i+1) - 1)
}

// Rank returns the number of occurrences of c in [0, i).
func (q *Sequence) Rank(c byte, i int) int {
	if i <= 0 || q.count[c] == 0 {
		return 0
	}
	if i > q.n {
		i = q.n
	}
	// k: index of the run containing position i-1.
	k := q.b.Rank1(i) - 1
	// r: number of c-runs among runs [0, k].
	r := q.heads.Rank(c, k+1)
	if r == 0 {
		return 0
	}
	if q.heads.Access(k) == c {
		// Partial last run: expanded length of the first r-1 c-runs, plus
		// the offset of i within the current run.
		full := q.expandedLen(c, r-1)
		runStart := q.b.Select1(k)
		return full + (i - runStart)
	}
	return q.expandedLen(c, r)
}

// expandedLen returns the total length of the first j runs of symbol c.
func (q *Sequence) expandedLen(c byte, j int) int {
	if j == 0 {
		return 0
	}
	totalRuns := q.cRuns[int(c)+1] - q.cRuns[c]
	if j >= totalRuns {
		return q.cExp[int(c)+1] - q.cExp[c]
	}
	// Start bit of the (j+1)-th run of c in bc, minus c's section start.
	return q.bc.Select1(q.cRuns[c]+j) - q.cExp[c]
}

// Runs returns the number of BWT runs (the compressibility measure).
func (q *Sequence) Runs() int { return q.heads.Len() }

// SizeInBytes reports the memory footprint of the structure.
func (q *Sequence) SizeInBytes() int {
	return q.heads.SizeInBytes() + q.b.SizeInBytes() + q.bc.SizeInBytes() + 257*16 + 256*8
}
