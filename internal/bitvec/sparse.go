package bitvec

import "math/bits"

// Sparse is an Elias–Fano encoded bit vector: it stores m sorted positions
// out of a universe [0, n) in m*ceil(log2(n/m)) + 2m + o(m) bits. This is the
// "sarray" structure of Okanohara and Sadakane that the paper uses for each
// row of the tag matrix R (Section 4.1.2). Select1 is one select on the
// high stream. Rank1, NextOne, Get and Successor are one Select0 plus a
// scan of one bucket (see Successor): O(1) expected, and logarithmic in the
// worst case, because a long bucket is binary searched and a long gap is
// selected over. Step, from a one known by its index and position to the
// next one, takes no select: it is a next-set-bit scan of the high stream,
// so a caller that walks a row in order keeps a finger instead of searching.
type Sparse struct {
	n        int // universe size
	m        int // number of ones
	lowBits  uint
	low      []uint64 // packed low bits, lowBits each
	high     *Vector  // unary-coded high parts: m ones among m + n>>lowBits zeros
	maxValue int
}

// NewSparse builds a sparse vector over universe [0, n) from the sorted,
// strictly increasing list of one-positions.
func NewSparse(n int, positions []int) *Sparse {
	m := len(positions)
	s := &Sparse{n: n, m: m}
	if m == 0 {
		s.high = New(0)
		s.high.Build()
		return s
	}
	// lowBits = floor(log2(n/m)), at least 0.
	lb := 0
	if n/m > 1 {
		lb = bits.Len(uint(n/m)) - 1
	}
	s.lowBits = uint(lb)
	s.low = make([]uint64, (m*lb+63)/64)
	highLen := (n >> s.lowBits) + m + 1
	s.high = New(highLen)
	for i, p := range positions {
		if lb > 0 {
			s.setLow(i, uint64(p)&((1<<s.lowBits)-1))
		}
		hp := (p >> s.lowBits) + i
		s.high.Set(hp)
	}
	s.high.Build()
	s.maxValue = positions[m-1]
	return s
}

func (s *Sparse) setLow(i int, v uint64) {
	bitPos := i * int(s.lowBits)
	w, off := bitPos>>6, uint(bitPos&63)
	s.low[w] |= v << off
	if off+s.lowBits > 64 {
		s.low[w+1] |= v >> (64 - off)
	}
}

func (s *Sparse) getLow(i int) uint64 {
	if s.lowBits == 0 {
		return 0
	}
	bitPos := i * int(s.lowBits)
	w, off := bitPos>>6, uint(bitPos&63)
	v := s.low[w] >> off
	if off+s.lowBits > 64 {
		v |= s.low[w+1] << (64 - off)
	}
	return v & ((1 << s.lowBits) - 1)
}

// Len returns the universe size.
func (s *Sparse) Len() int { return s.n }

// Ones returns the number of set positions.
func (s *Sparse) Ones() int { return s.m }

// Select1 returns the position of the (j+1)-th one (0-based j), or -1.
func (s *Sparse) Select1(j int) int {
	if j < 0 || j >= s.m {
		return -1
	}
	hp := s.high.Select1(j)
	highPart := hp - j
	return highPart<<s.lowBits | int(s.getLow(j))
}

// Rank1 returns the number of ones in [0, i).
func (s *Sparse) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	k, _ := s.Successor(i)
	return k
}

// Get returns whether position p is set.
func (s *Sparse) Get(p int) bool {
	_, v := s.Successor(p)
	return p >= 0 && v == p
}

// NextOne returns the smallest set position >= p, or -1 if none.
func (s *Sparse) NextOne(p int) int {
	_, v := s.Successor(p)
	return v
}

// Step returns the position of one k+1, given that one k (0 <= k < Ones())
// is at position v, or -1 when one k is the last. One k sits at
// v>>lowBits+k in the high stream, so one k+1 is its next set bit.
func (s *Sparse) Step(k, v int) int {
	return s.valueFrom(k+1, v>>s.lowBits+k+1)
}

// longBucket is the number of ones Successor compares one by one in a
// bucket before it binary searches the rest, and gapWords the number of
// high-stream words it scans past a bucket before it selects instead.
const (
	longBucket = 16
	gapWords   = 8
)

// Successor returns the index k of the first one at or after position p,
// and its position v, or (Ones(), -1) when there is none. The ones with
// high part hi = p>>lowBits are the run of ones after the hi-th zero of the high
// stream: one Select0 finds the run, a scan compares their low parts with
// p's, and once the run is over the next set bit of the high stream is the
// first one with a larger high part. Since lowBits = floor(log2(n/m)) makes
// at least m buckets, a run holds one value on average. The high stream
// ends in a zero (no high part exceeds n>>lowBits), so no scan leaves it;
// the k >= m test of valueFrom covers low parts that a damaged file left
// unsorted.
func (s *Sparse) Successor(p int) (k, v int) {
	if s.m == 0 || p > s.maxValue {
		return s.m, -1
	}
	p = max(p, 0)
	hi := p >> s.lowBits
	lowP := uint64(p) & (1<<s.lowBits - 1)
	pos := 0 // high-stream position of the first one with high part >= hi
	if hi > 0 {
		pos = s.high.Select0(hi-1) + 1
	}
	k = pos - hi
	words := s.high.words
	for seen := 0; words[pos>>6]>>uint(pos&63)&1 == 1; seen++ {
		if seen == longBucket {
			return s.searchBucket(hi, k, lowP)
		}
		if low := s.getLow(k); low >= lowP {
			return k, hi<<s.lowBits | int(low)
		}
		k++
		pos++
	}
	return k, s.valueFrom(k, pos)
}

// searchBucket finishes Successor in a long bucket: the first one at index
// >= k with high part hi and low part >= lowP, by binary search up to the
// bucket's end, else the first one after it.
func (s *Sparse) searchBucket(hi, k int, lowP uint64) (int, int) {
	end := s.high.Select0(hi)
	lo, up := k, end-hi
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if s.getLow(mid) >= lowP {
			up = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < end-hi {
		return lo, hi<<s.lowBits | int(s.getLow(lo))
	}
	return lo, s.valueFrom(lo, end+1)
}

// valueFrom returns the value of the k-th one (0-based), whose high-stream
// position is known to be >= pos: the next set bit from pos, or Select1
// when that is more than gapWords words away.
func (s *Sparse) valueFrom(k, pos int) int {
	if k >= s.m {
		return -1
	}
	words := s.high.words
	w := pos >> 6
	x := words[w] &^ (uint64(1)<<uint(pos&63) - 1)
	for i := 0; x == 0; i++ {
		if i == gapWords {
			return s.Select1(k)
		}
		w++
		x = words[w]
	}
	return (w<<6+bits.TrailingZeros64(x)-k)<<s.lowBits | int(s.getLow(k))
}

// SizeInBytes reports the memory footprint of the structure.
func (s *Sparse) SizeInBytes() int {
	sz := 8*len(s.low) + 48
	if s.high != nil {
		sz += s.high.SizeInBytes()
	}
	return sz
}
