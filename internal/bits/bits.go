// Package bits provides broadword primitives used by the succinct data
// structures: population counts, in-word select, and byte-granularity
// excess tables for balanced-parentheses searches. These are the O(1)
// building blocks the paper's rank/select structures (Section 2) assume.
// SelectInWord is branch-free up to its range check: byte prefix counts
// from one multiply, the answer's byte from one SWAR comparison, and the
// bit inside that byte from a 2 KB table.
package bits

import "math/bits"

// Excess byte tables. A byte is read as 8 parentheses, bit 0 first
// (1 = open, +1; 0 = close, -1). The forward tables describe a left-to-right
// walk, the backward tables a right-to-left walk; together they let the BP
// scans test "does the target excess occur inside this byte?" in O(1) and
// skip 8 positions at a time in either direction.
var (
	// ExcessTotal[v] is the total excess delta of the byte.
	ExcessTotal [256]int8
	// ExcessFwdMin/Max[v] bound the running excess after k = 1..8 forward
	// steps, relative to the excess just before the byte.
	ExcessFwdMin [256]int8
	ExcessFwdMax [256]int8
	// ExcessBwdMin/Max[v] bound the running excess after k = 1..8 backward
	// steps (undoing bits 7, 6, ... 0), relative to the excess at the
	// byte's last position. After k steps the walk sits at excess
	// -(d7 + ... + d(8-k)) where di is the delta of bit i.
	ExcessBwdMin [256]int8
	ExcessBwdMax [256]int8
)

func init() {
	for v := 0; v < 256; v++ {
		e, mn, mx := 0, 127, -127
		for b := 0; b < 8; b++ {
			if v>>uint(b)&1 == 1 {
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
		ExcessTotal[v] = int8(e)
		ExcessFwdMin[v] = int8(mn)
		ExcessFwdMax[v] = int8(mx)
		e, mn, mx = 0, 127, -127
		for b := 7; b >= 0; b-- {
			if v>>uint(b)&1 == 1 {
				e--
			} else {
				e++
			}
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		ExcessBwdMin[v] = int8(mn)
		ExcessBwdMax[v] = int8(mx)
		for r := 0; r < 8; r++ {
			selectInByte[v<<3|r] = 8
		}
		r := 0
		for b := 0; b < 8; b++ {
			if v>>uint(b)&1 == 1 {
				selectInByte[v<<3|r] = uint8(b)
				r++
			}
		}
	}
}

// selectInByte[v<<3|r] is the position of the (r+1)-th set bit of byte v,
// or 8 when v has at most r set bits.
var selectInByte [256 * 8]uint8

const (
	l8 = 0x0101010101010101 // 1 in every byte
	h8 = 0x8080808080808080 // the high bit of every byte
)

// Popcount returns the number of set bits in w.
func Popcount(w uint64) int { return bits.OnesCount64(w) }

// SelectInWord returns the position (0-based, from the least significant bit)
// of the (j+1)-th set bit of w, or 64 when j >= Popcount(w) (or j < 0).
//
// Byte i of s holds the ones in bytes 0..i (at most 64, so the high bit of
// every byte is clear). A byte of (j·L8 | H8) − s keeps its high bit exactly
// when its prefix count is <= j, so those bytes lie below the answer's byte;
// their number, times 8, is the byte's offset.
func SelectInWord(w uint64, j int) int {
	s := w - (w>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	s *= l8
	if uint(j) >= uint(s>>56) {
		return 64
	}
	below := ((uint64(j)*l8 | h8) - s) & h8
	off := ((below >> 7) * l8 >> 53) &^ 7 // 8 × the number of bytes below
	r := uint64(j) - ((s<<8)>>off)&0xff
	return int(off) + int(selectInByte[((w>>off)&0xff)<<3|r])
}

// Rank9WordMask returns a mask with the low n bits set (n in [0,64]).
func Rank9WordMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}
