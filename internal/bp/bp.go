// Package bp implements the balanced-parentheses representation of an
// ordinal tree (paper Section 4.1.1) with the navigation set of Section 4.2:
// FindClose/FindOpen/Enclose run on a range-min-max tree over the excess
// sequence (Sadakane and Navarro, SODA 2010), giving O(log n) worst case and
// near-constant time in practice for local queries. Their searches scan the
// origin block a word at a time on excess relative to the origin, so they
// take no rank; Preorder and friends use the constant-time rank of the
// underlying bit vector.
//
// A tree node is identified by the position of its opening parenthesis, as
// in the paper. Nil is represented by -1.
package bp

import (
	"repro/internal/bits"
	"repro/internal/bitvec"
)

// Nil is the missing-node sentinel.
const Nil = -1

const blockBits = 512 // one rmM leaf covers this many parentheses

// Parens is the frozen balanced-parentheses sequence with its rmM tree.
type Parens struct {
	bits *bitvec.Vector
	n    int
	// Excess at the start of each block (excess of all positions before it).
	blockStart []int32
	// Segment tree over blocks: per node, min and max absolute excess
	// attained inside the node's range. 1-based heap layout.
	segMin, segMax []int32
	nBlocks        int
	segLeaves      int // power of two >= nBlocks
}

// navCounter counts structure visits during a search. Production calls pass
// nil (no shared state, so concurrent readers stay race-free); whitebox
// tests pass a counter to assert the O(log n) bound: at most two block scans
// plus a root-to-leaf factor of segment-tree nodes per search.
type navCounter struct {
	blocks   int // blocks scanned by scanFwd/scanBwd
	segNodes int // segment-tree nodes whose [min,max] was tested
}

func (c *navCounter) block() {
	if c != nil {
		c.blocks++
	}
}

func (c *navCounter) segNode() {
	if c != nil {
		c.segNodes++
	}
}

// NewFromBools builds the structure from a parenthesis sequence
// (true = '('). The sequence must be balanced.
func NewFromBools(parens []bool) *Parens {
	v := bitvec.New(len(parens))
	for i, b := range parens {
		if b {
			v.Set(i)
		}
	}
	v.Build()
	return New(v)
}

// New builds the structure from a frozen bit vector (1 = open paren).
func New(v *bitvec.Vector) *Parens {
	p := &Parens{bits: v, n: v.Len()}
	nb := (p.n + blockBits - 1) / blockBits
	if nb == 0 {
		nb = 1
	}
	p.nBlocks = nb
	p.blockStart = make([]int32, nb+1)
	leaves := 1
	for leaves < nb {
		leaves *= 2
	}
	p.segLeaves = leaves
	p.segMin = make([]int32, 2*leaves)
	p.segMax = make([]int32, 2*leaves)
	for i := range p.segMin {
		p.segMin[i] = int32(1) << 30
		p.segMax[i] = -(int32(1) << 30)
	}
	// Per-block excess sweep, one byte at a time through the prefix-excess
	// tables (block boundaries are byte-aligned): ~8x fewer steps than a
	// per-bit walk, which matters because this build runs on every load.
	words := v.Words()
	e := int32(0)
	for b := 0; b < nb; b++ {
		p.blockStart[b] = e
		mn, mx := int32(1)<<30, -(int32(1) << 30)
		lo, hi := b*blockBits, (b+1)*blockBits
		if hi > p.n {
			hi = p.n
		}
		i := lo
		for ; hi-i >= 8; i += 8 {
			bv := byte(words[i>>6] >> uint(i&63))
			if m := e + int32(bits.ExcessFwdMin[bv]); m < mn {
				mn = m
			}
			if m := e + int32(bits.ExcessFwdMax[bv]); m > mx {
				mx = m
			}
			e += int32(bits.ExcessTotal[bv])
		}
		for ; i < hi; i++ {
			if v.Get(i) {
				e++
			} else {
				e--
			}
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		p.segMin[leaves+b] = mn
		p.segMax[leaves+b] = mx
	}
	p.blockStart[nb] = e
	for i := leaves - 1; i >= 1; i-- {
		p.segMin[i] = min(p.segMin[2*i], p.segMin[2*i+1])
		p.segMax[i] = max(p.segMax[2*i], p.segMax[2*i+1])
	}
	return p
}

// Len returns the number of parentheses (2x number of nodes).
func (p *Parens) Len() int { return p.n }

// IsOpen reports whether position i holds an opening parenthesis.
func (p *Parens) IsOpen(i int) bool { return p.bits.Get(i) }

// BitWords exposes the raw words of the parenthesis bit vector, for
// word-parallel consumers (cross-structure validation, serialization).
func (p *Parens) BitWords() []uint64 { return p.bits.Words() }

// Excess returns the number of open minus closed parentheses in [0, i].
func (p *Parens) Excess(i int) int {
	if i < 0 {
		return 0
	}
	return 2*p.bits.Rank1(i+1) - (i + 1)
}

// Rank1 counts opening parentheses in [0, i).
func (p *Parens) Rank1(i int) int { return p.bits.Rank1(i) }

// Select1 returns the position of the (j+1)-th opening parenthesis.
func (p *Parens) Select1(j int) int { return p.bits.Select1(j) }

// covers reports whether segment-tree node idx's excess range contains
// target. Padding leaves keep their sentinel ranges and never cover.
func (p *Parens) covers(idx int, target int32, c *navCounter) bool {
	c.segNode()
	return p.segMin[idx] <= target && target <= p.segMax[idx]
}

// fwd returns the smallest j > i with Excess(j) − Excess(i) == d, or Nil
// (i >= -1, with Excess(-1) == 0). The origin block is scanned on excess
// relative to i, so the search takes no rank. Only a miss needs the absolute
// target, for the segment tree: the scan ends at the block's last position,
// whose excess is blockStart[b+1].
func (p *Parens) fwd(i, d int, c *navCounter) int {
	start := i + 1
	b := start / blockBits
	if b >= p.nBlocks {
		return Nil
	}
	c.block()
	j, e := p.scanFwd(start, min((b+1)*blockBits, p.n), d)
	if j != Nil {
		return j
	}
	// Find the next block whose [min,max] range covers target; inside it a
	// ±1 walk attains every value of the range, so the scan cannot miss.
	target := int(p.blockStart[b+1]) - e + d
	nb := p.nextBlock(b+1, int32(target), c)
	if nb < 0 {
		return Nil
	}
	c.block()
	j, _ = p.scanFwd(nb*blockBits, min((nb+1)*blockBits, p.n), target-int(p.blockStart[nb]))
	return j
}

// scanFwd returns the first position j in [start, end) whose excess,
// relative to position start-1, is d; on a miss it returns Nil and the
// relative excess at end-1. It reads a word at a time, shifted so that
// start is bit 0.
func (p *Parens) scanFwd(start, end, d int) (int, int) {
	words := p.bits.Words()
	e := 0
	for i := start; i < end; {
		sh := i & 63
		n := min(64-sh, end-i)
		// Bits past the n in range are set: opens never lower the excess.
		w := words[i>>6]>>uint(sh) | ^uint64(0)<<uint(n)
		if k := scanWordFwd(w, n, d-e); k >= 0 {
			return i + k, 0
		}
		e += 2*bits.Popcount(w) + n - 128 // the excess of the n real bits
		i += n
	}
	return Nil, e
}

// scanWordFwd returns the first k < n at which the running excess of w's
// bits 0..k is t, or -1. A byte table lookup decides whether the walk
// reaches t inside a byte. It is exact for a byte of real bits; a short
// last byte is padded with opens, which keep its minimum, so the lookup can
// only be a false positive there, which the bit loop rejects.
func scanWordFwd(w uint64, n, t int) int {
	e := 0
	for k := 0; k < n; k += 8 {
		bv := byte(w >> uint(k))
		if d := t - e; int(bits.ExcessFwdMin[bv]) <= d && d <= int(bits.ExcessFwdMax[bv]) {
			for b := k; b < k+8 && b < n; b++ {
				e += int(w>>uint(b)&1)*2 - 1
				if e == t {
					return b
				}
			}
			return -1
		}
		e += int(bits.ExcessTotal[bv])
	}
	return -1
}

// nextBlock returns the first block index >= b whose excess range covers
// target, or -1. It climbs from the leaf to the nearest ancestor that is a
// left child, steps to that ancestor's right sibling, and repeats until a
// covering subtree is found, then descends to its leftmost covering leaf:
// O(log n) node visits total.
func (p *Parens) nextBlock(b int, target int32, c *navCounter) int {
	if b < 0 || b >= p.nBlocks {
		return -1
	}
	idx := p.segLeaves + b
	for !p.covers(idx, target, c) {
		for idx > 1 && idx%2 == 1 {
			idx /= 2
		}
		if idx <= 1 {
			return -1
		}
		idx++ // right sibling: all blocks beyond those already ruled out
	}
	for idx < p.segLeaves {
		if p.covers(2*idx, target, c) {
			idx = 2 * idx
		} else {
			idx = 2*idx + 1
		}
	}
	return idx - p.segLeaves
}

// prevBlock returns the last block index <= b whose excess range covers
// target, or -1. Mirror image of nextBlock: climb past left-child
// ancestors, step to the left sibling, descend to the rightmost covering
// leaf.
func (p *Parens) prevBlock(b int, target int32, c *navCounter) int {
	if b < 0 || b >= p.nBlocks {
		return -1
	}
	idx := p.segLeaves + b
	for !p.covers(idx, target, c) {
		for idx > 1 && idx%2 == 0 {
			idx /= 2
		}
		if idx <= 1 {
			return -1
		}
		idx-- // left sibling: all blocks before those already ruled out
	}
	for idx < p.segLeaves {
		if p.covers(2*idx+1, target, c) {
			idx = 2*idx + 1
		} else {
			idx = 2 * idx
		}
	}
	return idx - p.segLeaves
}

// bwd returns the largest j <= hi with Excess(j) − Excess(hi) == d, where
// j == -1 (Excess(-1) == 0) counts, or -2 when there is none. Mirror image
// of fwd: the origin block is scanned on excess relative to hi, down to
// the block's lower boundary, position lo-1, whose excess is blockStart[b].
func (p *Parens) bwd(hi, d int, c *navCounter) int {
	if hi < 0 {
		if hi == -1 && d == 0 {
			return -1
		}
		return -2
	}
	b := hi / blockBits
	c.block()
	j, e := p.scanBwd(hi, b*blockBits, d)
	if j != -2 {
		return j
	}
	// Jump straight to the last earlier block covering target; blockStart
	// seeds its edge excess.
	target := int(p.blockStart[b]) - e + d
	if pb := p.prevBlock(b-1, int32(target), c); pb >= 0 {
		c.block()
		if j, _ := p.scanBwd((pb+1)*blockBits-1, pb*blockBits, target-int(p.blockStart[pb+1])); j != -2 {
			return j
		}
	}
	if target == 0 {
		return -1
	}
	return -2
}

// scanBwd returns the largest j in [lo-1, start] whose excess, relative to
// position start, is d (excess(j) = excess(j+1) - delta(j+1)); on a miss it
// returns -2 and the relative excess at lo-1. It reads a word at a time,
// shifted so that the bit at start is bit 63.
func (p *Parens) scanBwd(start, lo, d int) (int, int) {
	if d == 0 {
		return start, 0
	}
	words := p.bits.Words()
	e := 0
	for j := start; j >= lo; {
		n := min(j&63+1, j-lo+1)
		// Bits below the n in range are clear: undone, closes never lower
		// the excess.
		w := words[j>>6] << uint(63-j&63) >> uint(64-n) << uint(64-n)
		if k := scanWordBwd(w, n, d-e); k >= 0 {
			return j - k - 1, 0
		}
		e -= 2*bits.Popcount(w) - n
		j -= n
	}
	return -2, e
}

// scanWordBwd undoes w's bits from bit 63 down and returns the first k < n
// such that, once bits 63..63-k are undone, the running excess is t, or -1.
// The backward byte tables play the part of the forward ones in
// scanWordFwd, and the clear bits below the n real ones are the padding.
func scanWordBwd(w uint64, n, t int) int {
	e := 0
	for k := 0; k < n; k += 8 {
		bv := byte(w >> uint(56-k))
		if d := t - e; int(bits.ExcessBwdMin[bv]) <= d && d <= int(bits.ExcessBwdMax[bv]) {
			for b := k; b < k+8 && b < n; b++ {
				e -= int(w>>uint(63-b)&1)*2 - 1
				if e == t {
					return b
				}
			}
			return -1
		}
		e -= int(bits.ExcessTotal[bv])
	}
	return -1
}

// FindClose returns the position of the closing parenthesis matching the
// open parenthesis at i.
func (p *Parens) FindClose(i int) int {
	if i+1 < p.n && !p.bits.Get(i+1) {
		return i + 1 // leaf fast path
	}
	return p.fwd(i, -1, nil)
}

// FindOpen returns the position of the opening parenthesis matching the
// close parenthesis at j.
func (p *Parens) FindOpen(j int) int {
	if j > 0 && p.bits.Get(j-1) {
		return j - 1 // leaf fast path
	}
	// Excess(j) == Excess(j-1) - 1: the match is one past the last earlier
	// position at that excess.
	r := p.bwd(j-1, -1, nil)
	if r < -1 {
		return Nil
	}
	return r + 1
}

// Enclose returns the opening parenthesis of the parent of the node whose
// opening parenthesis is at i, or Nil for the root.
func (p *Parens) Enclose(i int) int {
	if i == 0 {
		return Nil
	}
	if p.bits.Get(i - 1) {
		return i - 1 // first-child fast path
	}
	// The target Excess(i)-2 is Excess(i-1)-1: the parent opens one past
	// the last earlier position at that excess.
	r := p.bwd(i-1, -1, nil)
	if r < -1 {
		return Nil
	}
	return r + 1
}

// --- Tree operations (Section 4.2.1) ---

// Root returns the root node (position 0), or Nil for an empty tree.
func (p *Parens) Root() int {
	if p.n == 0 {
		return Nil
	}
	return 0
}

// Close is the paper's Close(x).
func (p *Parens) Close(x int) int { return p.FindClose(x) }

// Preorder returns the 0-based preorder number of node x.
func (p *Parens) Preorder(x int) int { return p.bits.Rank1(x+1) - 1 }

// NodeAtPreorder returns the node with 0-based preorder k.
func (p *Parens) NodeAtPreorder(k int) int { return p.bits.Select1(k) }

// NumNodes returns the number of tree nodes.
func (p *Parens) NumNodes() int { return p.n / 2 }

// SubtreeSize returns the number of nodes in the subtree rooted at x.
func (p *Parens) SubtreeSize(x int) int { return (p.FindClose(x) - x + 1) / 2 }

// IsAncestor reports whether x is an ancestor of y (inclusive).
func (p *Parens) IsAncestor(x, y int) bool { return x <= y && y <= p.FindClose(x) }

// IsLeaf reports whether x has no children.
func (p *Parens) IsLeaf(x int) bool { return !p.bits.Get(x + 1) }

// FirstChild returns x's first child or Nil.
func (p *Parens) FirstChild(x int) int {
	if p.bits.Get(x + 1) {
		return x + 1
	}
	return Nil
}

// NextSibling returns x's next sibling or Nil.
func (p *Parens) NextSibling(x int) int {
	c := p.FindClose(x) + 1
	if c < p.n && p.bits.Get(c) {
		return c
	}
	return Nil
}

// PrevSibling returns x's previous sibling or Nil. If the parenthesis just
// before x is an opening one it belongs to x's parent (x is a first child);
// otherwise it closes the previous sibling and FindOpen locates it.
func (p *Parens) PrevSibling(x int) int {
	if x <= 0 || p.bits.Get(x-1) {
		return Nil
	}
	return p.FindOpen(x - 1)
}

// Parent returns x's parent or Nil.
func (p *Parens) Parent(x int) int { return p.Enclose(x) }

// LevelAncestor returns the ancestor of x that is d levels above it (d = 1
// is the parent), or Nil when the walk leaves the tree. It generalizes
// Enclose: inside the subtree of the ancestor at depth Depth(x)-d the excess
// never drops below that depth, so the largest position before x with excess
// Depth(x)-d-1 is the position just before that ancestor's opening
// parenthesis — one backward search instead of d Parent hops. Relative to
// position x-1, whose excess is Depth(x)-1, that target is -d.
func (p *Parens) LevelAncestor(x, d int) int {
	if d <= 0 {
		return x
	}
	r := p.bwd(x-1, -d, nil)
	if r < -1 {
		return Nil
	}
	return r + 1
}

// Depth returns the depth of node x (root has depth 1).
func (p *Parens) Depth(x int) int { return p.Excess(x) }

// SizeInBytes reports the memory footprint of the structure.
func (p *Parens) SizeInBytes() int {
	return p.bits.SizeInBytes() + 4*len(p.blockStart) + 4*len(p.segMin) + 4*len(p.segMax) + 48
}
