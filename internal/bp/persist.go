package bp

import (
	"repro/internal/bits"
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
	// open/close pairs) assume every close matches an earlier open. Walk
	// whole bytes with the prefix-excess tables where possible.
	excess, n := 0, v.Len()
	words := v.Words()
	for i := 0; i < n && excess >= 0; {
		if i%8 == 0 && n-i >= 8 {
			bv := byte(words[i>>6] >> uint(i&63))
			if excess+int(bits.ExcessFwdMin[bv]) < 0 {
				excess = -1
				break
			}
			excess += int(bits.ExcessTotal[bv])
			i += 8
			continue
		}
		if v.Get(i) {
			excess++
		} else {
			excess--
		}
		i++
	}
	if pr.Check(excess == 0, "unbalanced parentheses") != nil {
		return nil
	}
	return New(v)
}
