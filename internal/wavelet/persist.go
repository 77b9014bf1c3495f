package wavelet

import (
	"repro/internal/bitvec"
	"repro/internal/persist"
)

// On-disk layout: the symbol counts and the per-node bitmaps in preorder.
// The Huffman shape is not stored — buildShape is deterministic in the
// counts, so the loader recreates the identical tree and attaches each
// stored bitmap to its node. Loading therefore skips the bit-by-bit fill
// pass of New, the expensive half of construction.

const treeFormat = 1

// Store serializes the tree into pw.
func (t *Tree) Store(pw *persist.Writer) {
	pw.Byte(treeFormat)
	pw.Int(t.n)
	counts := make([]uint64, 256)
	for c, cnt := range t.counts {
		counts[c] = uint64(cnt)
	}
	pw.Words(counts)
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd == nil || nd.isLeaf {
			return
		}
		nd.bits.Store(pw)
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
}

// Read reads a tree written by Store. On corrupt input it returns nil and
// leaves the error in pr.
func Read(pr *persist.MReader) *Tree {
	if pr.Check(pr.Byte() == treeFormat, "unknown wavelet tree format") != nil {
		return nil
	}
	t := &Tree{n: pr.Int()}
	counts := pr.Words()
	if pr.Check(len(counts) == 256, "wavelet count table size") != nil {
		return nil
	}
	total := 0
	for c, cnt := range counts {
		if pr.Check(cnt <= uint64(t.n), "wavelet symbol count out of range") != nil {
			return nil
		}
		t.counts[c] = int(cnt)
		total += int(cnt)
	}
	if pr.Check(total == t.n, "wavelet counts do not sum to length") != nil {
		return nil
	}
	if !t.buildShape() {
		return t
	}
	// Attach the stored bitmaps preorder, validating each node's length
	// against the count flow implied by the shape.
	var walk func(nd *node, want int) bool
	walk = func(nd *node, want int) bool {
		if nd.isLeaf {
			return pr.Check(want == t.counts[nd.leafSym], "wavelet leaf count mismatch") == nil
		}
		bits := bitvec.ReadVector(pr)
		if bits == nil {
			return false
		}
		if pr.Check(bits.Len() == want, "wavelet node length mismatch") != nil {
			return false
		}
		nd.bits = bits
		return walk(nd.left, bits.Rank0(want)) && walk(nd.right, bits.Rank1(want))
	}
	if !walk(t.root, t.n) {
		return nil
	}
	return t
}
