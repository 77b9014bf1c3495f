package bitvec

import "repro/internal/persist"

// On-disk layout of the bit vectors. Both kinds carry a one-byte format
// version so a standalone payload is self-describing; the rank directories
// are not stored — Build recreates them in linear time on load, which is
// the cheap part of construction.
//
// Store/ReadVector (and the Sparse pair) compose into a caller's
// persist.Writer/MReader, so enclosing structures serialize through one
// buffered stream and decode out of one buffer.

const (
	vectorFormat = 1
	sparseFormat = 1
)

// Store serializes the frozen vector (version byte, length, raw words)
// into pw.
func (v *Vector) Store(pw *persist.Writer) {
	pw.Byte(vectorFormat)
	pw.Int(v.n)
	pw.Words(v.words)
}

// ReadVector reads a vector written by Store and rebuilds its rank
// directory. On corrupt input it returns nil and leaves the error in pr.
func ReadVector(pr *persist.MReader) *Vector {
	if pr.Check(pr.Byte() == vectorFormat, "unknown bit vector format") != nil {
		return nil
	}
	n := pr.Int()
	words := pr.Words()
	if pr.Check(len(words) == (n+63)/64, "bit vector word count mismatch") != nil {
		return nil
	}
	// Bits beyond n must be zero: Build's popcounts (and word-level
	// consumers) assume a clean tail.
	if rem := n & 63; rem != 0 {
		if pr.Check(words[len(words)-1]>>uint(rem) == 0, "bit vector tail not zero") != nil {
			return nil
		}
	}
	v := &Vector{words: words, n: n}
	v.Build()
	return v
}

// Store serializes the sparse vector into pw: universe size and the packed
// Elias–Fano components (low bits plus the unary high stream).
func (s *Sparse) Store(pw *persist.Writer) {
	pw.Byte(sparseFormat)
	pw.Int(s.n)
	pw.Int(s.m)
	pw.Int(int(s.lowBits))
	pw.Int(s.maxValue)
	pw.Words(s.low)
	s.high.Store(pw)
}

// ReadSparse reads a sparse vector written by Store. On corrupt input it
// returns nil and leaves the error in pr.
func ReadSparse(pr *persist.MReader) *Sparse {
	if pr.Check(pr.Byte() == sparseFormat, "unknown sparse vector format") != nil {
		return nil
	}
	s := &Sparse{}
	s.n = pr.Int()
	s.m = pr.Int()
	lb := pr.Int()
	s.maxValue = pr.Int()
	s.low = pr.Words()
	high := ReadVector(pr)
	if pr.Err() != nil {
		return nil
	}
	if pr.Check(lb < 64, "sparse low-bit width out of range") != nil {
		return nil
	}
	s.lowBits = uint(lb)
	s.high = high
	if s.m == 0 {
		if pr.Check(len(s.low) == 0 && s.maxValue == 0, "sparse low bits without ones") != nil {
			return nil
		}
		return s
	}
	ok := len(s.low) == (s.m*lb+63)/64 &&
		high.Ones() == s.m &&
		high.Len() == (s.n>>s.lowBits)+s.m+1
	if pr.Check(ok, "sparse vector component mismatch") != nil {
		return nil
	}
	// Successor trusts maxValue as its early exit: a larger one would send
	// it past the last one, a smaller one would hide ones.
	last := s.Select1(s.m - 1)
	if pr.Check(s.maxValue == last && last < s.n, "sparse maximum mismatch") != nil {
		return nil
	}
	return s
}
