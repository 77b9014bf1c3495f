package tags

import (
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/persist"
)

// On-disk layout: the packed identifier array plus its dimensions, and the
// per-tag sparse rank/select rows in their Elias–Fano form. The rows could
// be re-derived from the packed array, but storing them (a comparable
// number of bits) makes loading a near-memcpy instead of a per-position
// distribution pass.

const sequenceFormat = 1

// Store serializes the sequence into pw.
func (s *Sequence) Store(pw *persist.Writer) {
	pw.Byte(sequenceFormat)
	pw.Int(s.n)
	pw.Int(s.maxTagID)
	pw.Int(int(s.width))
	pw.Words(s.packed)
	for _, r := range s.rows {
		r.Store(pw)
	}
}

// Read reads a sequence written by Store. On corrupt input it returns nil
// and leaves the error in pr.
func Read(pr *persist.MReader) *Sequence {
	if pr.Check(pr.Byte() == sequenceFormat, "unknown tag sequence format") != nil {
		return nil
	}
	s := &Sequence{}
	s.n = pr.Int()
	s.maxTagID = pr.Int()
	w := pr.Int()
	s.packed = pr.Words()
	if pr.Err() != nil {
		return nil
	}
	// The id-space bound (2*n+8) reflects the only persisted use: xmltree
	// interns at most four reserved labels plus one label per node, and
	// stores open/close variants. It keeps a corrupt count from driving the
	// per-tag row allocation below.
	ok := w >= 1 && w <= 32 &&
		s.maxTagID >= 1 && s.maxTagID <= 1<<w && s.maxTagID <= 2*s.n+8 &&
		len(s.packed) == (s.n*w+63)/64
	if pr.Check(ok, "tag sequence dimensions mismatch") != nil {
		return nil
	}
	s.width = uint(w)
	// Every packed id must be in range: consumers index per-tag arrays with
	// Access results. Skip the scan when the width makes all values legal;
	// otherwise the scan is chunked across the CPUs — it is pure reads over
	// an aliased array and sits on the open-latency path.
	if s.maxTagID < 1<<s.width {
		var bad atomic.Bool
		persist.Chunked(s.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if int(s.Access(i)) >= s.maxTagID {
					bad.Store(true)
					return
				}
			}
		})
		if pr.Check(!bad.Load(), "tag identifier out of range") != nil {
			return nil
		}
	}
	s.rows = make([]*bitvec.Sparse, s.maxTagID)
	total := 0
	for id := range s.rows {
		r := bitvec.ReadSparse(pr)
		if r == nil {
			return nil
		}
		if pr.Check(r.Len() == s.n+1, "tag row universe mismatch") != nil {
			return nil
		}
		// Row positions must be real sequence positions (< n): jump results
		// flow unchecked into parenthesis navigation.
		if r.Ones() > 0 && pr.Check(r.Select1(r.Ones()-1) < s.n, "tag row position out of range") != nil {
			return nil
		}
		s.rows[id] = r
		total += r.Ones()
	}
	if pr.Check(total == s.n, "tag rows do not cover the sequence") != nil {
		return nil
	}
	return s
}
