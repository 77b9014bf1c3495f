package bp

import (
	"repro/internal/bitvec"
	"repro/internal/persist"
)

// On-disk layout: only the parenthesis bit vector is stored. The
// range-min-max tree is a linear-time directory over it, so Read rebuilds
// it instead of paying the disk space.

const parensFormat = 1

// Store serializes the parenthesis sequence into pw.
func (p *Parens) Store(pw *persist.Writer) {
	pw.Byte(parensFormat)
	p.bits.Store(pw)
}

// Read reads a parenthesis sequence written by Store and rebuilds the
// range-min-max tree over it. On corrupt input it returns nil and leaves
// the error in pr.
func Read(pr *persist.MReader) *Parens {
	if pr.Check(pr.Byte() == parensFormat, "unknown parentheses format") != nil {
		return nil
	}
	v := bitvec.ReadVector(pr)
	if pr.Err() != nil {
		return nil
	}
	if pr.Check(v.Len()%2 == 0, "odd parenthesis count") != nil {
		return nil
	}
	// The sequence must be balanced: navigation (and consumers iterating
	// open/close pairs) assume every close matches an earlier open. The
	// rmM build's excess sweep decides it: no prefix dips below zero (the
	// root minimum, which stays at 1<<30 for an empty sequence) and the
	// whole sequence ends at zero.
	p := New(v)
	if pr.Check(p.blockStart[p.nBlocks] == 0 && p.segMin[1] >= 0, "unbalanced parentheses") != nil {
		return nil
	}
	return p
}
