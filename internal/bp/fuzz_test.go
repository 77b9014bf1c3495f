package bp

import (
	"math/rand"
	"testing"
)

// maxFuzzParens caps the sequences FuzzParens builds, so one input stays a
// few milliseconds of naive checking.
const maxFuzzParens = 1 << 14

// fuzzParens decodes a fuzz input into a balanced sequence under one root.
// Each byte is an instruction: its top two bits pick one of a chain of up to
// 64 opens, up to 64 closes (never below the root), a run of up to 512
// leaves, and a single parenthesis; the low six bits are the count. The
// sequence ends by closing every open node, so its length is any even
// number, rarely a multiple of 8, 64 or 512.
func fuzzParens(data []byte) []bool {
	parens := []bool{true}
	depth := 1
	for _, b := range data {
		k := int(b&63) + 1
		switch b >> 6 {
		case 0: // deep chain
			for ; k > 0 && len(parens) < maxFuzzParens; k-- {
				parens = append(parens, true)
				depth++
			}
		case 1:
			for ; k > 0 && depth > 1; k-- {
				parens = append(parens, false)
				depth--
			}
		case 2: // wide run
			for k *= 8; k > 0 && len(parens) < maxFuzzParens; k-- {
				parens = append(parens, true, false)
			}
		case 3:
			if b&1 == 1 && len(parens) < maxFuzzParens {
				parens = append(parens, true)
				depth++
			} else if b&1 == 0 && depth > 1 {
				parens = append(parens, false)
				depth--
			}
		}
	}
	for ; depth > 0; depth-- {
		parens = append(parens, false)
	}
	return parens
}

// FuzzParens checks the navigation of Section 4.2 on sequences built from
// the fuzz input against a naive excess walk: FindClose, FindOpen, Enclose
// and LevelAncestor at every position against a stack of open positions,
// and fwdSearch and bwdSearch, at up to 256 positions and for targets
// around the position's excess, against linear scans of the excess prefix.
func FuzzParens(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f}) // 768-deep chain
	f.Add([]byte{0xbf, 0xbf, 0x05})                                                       // 1,024 leaves, then a chain of 6
	f.Add([]byte{0x07, 0x83, 0x47, 0x3f, 0xa0, 0x7f, 0x7f, 0xff, 0xc1, 0xc0, 0x8a})
	r := rand.New(rand.NewSource(3))
	random := make([]byte, 300)
	r.Read(random)
	f.Add(random)
	f.Fuzz(func(t *testing.T, data []byte) {
		parens := fuzzParens(data)
		p := NewFromBools(parens)
		n := len(parens)
		exc := excessPrefix(parens)
		var stack []int // open positions of the ancestors of the current position
		match := make([]int, n)
		for i, open := range parens {
			if open {
				enc := Nil
				if len(stack) > 0 {
					enc = stack[len(stack)-1]
				}
				if got := p.Enclose(i); got != enc {
					t.Fatalf("n=%d: Enclose(%d) = %d, want %d", n, i, got, enc)
				}
				for _, d := range []int{0, 1, 2, 3, len(stack) - 1, len(stack), len(stack) + 1} {
					want := i
					switch {
					case d > len(stack):
						want = Nil
					case d > 0:
						want = stack[len(stack)-d]
					}
					if got := p.LevelAncestor(i, d); got != want {
						t.Fatalf("n=%d: LevelAncestor(%d, %d) = %d, want %d", n, i, d, got, want)
					}
				}
				stack = append(stack, i)
				continue
			}
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			match[o], match[i] = i, o
			if got := p.FindOpen(i); got != o {
				t.Fatalf("n=%d: FindOpen(%d) = %d, want %d", n, i, got, o)
			}
		}
		for i, open := range parens {
			if open {
				if got := p.FindClose(i); got != match[i] {
					t.Fatalf("n=%d: FindClose(%d) = %d, want %d", n, i, got, match[i])
				}
			}
		}
		step := max(1, n/256)
		for i := -1; i <= n; i += step {
			e := 0
			if i >= 0 && i < n {
				e = exc[i+1]
			}
			for _, target := range []int{e - 2, e - 1, e, e + 1, e + 2, 0} {
				if i < n {
					if got, want := p.fwdSearch(i, target), naiveFwdSearch(exc, i, target); got != want {
						t.Fatalf("n=%d: fwdSearch(%d, %d) = %d, want %d", n, i, target, got, want)
					}
				}
				if i >= 0 {
					if got, want := p.bwdSearch(i, target), naiveBwdSearch(exc, i, target); got != want {
						t.Fatalf("n=%d: bwdSearch(%d, %d) = %d, want %d", n, i, target, got, want)
					}
				}
			}
		}
	})
}
