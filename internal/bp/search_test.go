package bp

import (
	"math"
	"math/rand"
	"testing"
)

// --- absolute forms ---

// fwdSearch returns the smallest j > i with Excess(j) == target, or Nil: fwd
// with its target stated in absolute excess, as the naive references take it.
func (p *Parens) fwdSearch(i, target int) int { return p.fwdSearchCounted(i, target, nil) }

func (p *Parens) fwdSearchCounted(i, target int, c *navCounter) int {
	return p.fwd(i, target-p.Excess(i), c)
}

// bwdSearch returns the largest j < i with Excess(j) == target, or -2 when
// no such j exists; j == -1 (Excess(-1) == 0) is a valid answer when target
// is 0. The position i itself is never returned.
func (p *Parens) bwdSearch(i, target int) int { return p.bwdSearchCounted(i, target, nil) }

func (p *Parens) bwdSearchCounted(i, target int, c *navCounter) int {
	return p.bwd(i-1, target-p.Excess(i-1), c)
}

// --- naive references ---

// excessPrefix returns exc with exc[j+1] == Excess(j), exc[0] == 0, so the
// naive searches run in linear time per call.
func excessPrefix(parens []bool) []int {
	exc := make([]int, len(parens)+1)
	for j, b := range parens {
		if b {
			exc[j+1] = exc[j] + 1
		} else {
			exc[j+1] = exc[j] - 1
		}
	}
	return exc
}

// naiveFwdSearch is the contract of fwdSearch: smallest j > i with
// Excess(j) == target, or Nil.
func naiveFwdSearch(exc []int, i, target int) int {
	for j := i + 1; j < len(exc)-1; j++ {
		if exc[j+1] == target {
			return j
		}
	}
	return Nil
}

// naiveBwdSearch is the contract of bwdSearch: largest j < i with
// Excess(j) == target (j == -1 counts, with Excess(-1) == 0), or -2.
func naiveBwdSearch(exc []int, i, target int) int {
	if i > len(exc)-1 {
		i = len(exc) - 1
	}
	for j := i - 1; j >= -1; j-- {
		if exc[j+1] == target {
			return j
		}
	}
	return -2
}

// --- adversarial shapes ---

// deepChainParens is n opens followed by n closes: excess is strictly
// monotone on each half, the worst case for value-based block skipping.
func deepChainParens(n int) []bool {
	parens := make([]bool, 2*n)
	for i := 0; i < n; i++ {
		parens[i] = true
	}
	return parens
}

// wideFlatParens is a root with n leaf children: excess oscillates between 1
// and 2 for the whole document, so no interior block ever covers 0.
func wideFlatParens(n int) []bool {
	parens := make([]bool, 0, 2*n+2)
	parens = append(parens, true)
	for i := 0; i < n; i++ {
		parens = append(parens, true, false)
	}
	return append(parens, false)
}

// alternatingParens nests chains of depth d side by side under one root.
func alternatingParens(groups, d int) []bool {
	parens := []bool{true}
	for g := 0; g < groups; g++ {
		for i := 0; i < d; i++ {
			parens = append(parens, true)
		}
		for i := 0; i < d; i++ {
			parens = append(parens, false)
		}
	}
	return append(parens, false)
}

// searchShapes returns the named test documents, sized to span many rmM
// blocks plus one single-block document.
func searchShapes() map[string][]bool {
	return map[string][]bool{
		"single-block": wideFlatParens(100), // 202 parens: nBlocks == 1
		"deep-chain":   deepChainParens(3000),
		"wide-flat":    wideFlatParens(3000),
		"alternating":  alternatingParens(40, 60),
	}
}

// TestSearchAgainstNaive cross-checks fwdSearch and bwdSearch against the
// linear-scan references on random positions and excess targets, over random
// trees and the adversarial shapes.
func TestSearchAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	shapes := searchShapes()
	for trial := 0; trial < 6; trial++ {
		shapes["random"] = randomTreeParens(r, 200+r.Intn(1500))
		for name, parens := range shapes {
			p := NewFromBools(parens)
			exc := excessPrefix(parens)
			n := len(parens)
			positions := []int{0, 1, n / 2, n - 2, n - 1}
			for k := 0; k < 40; k++ {
				positions = append(positions, r.Intn(n))
			}
			for _, i := range positions {
				e := p.Excess(i)
				for _, target := range []int{e, e - 1, e + 1, e - 2, 0, 1, e - r.Intn(5), e + r.Intn(5)} {
					if got, want := p.fwdSearch(i, target), naiveFwdSearch(exc, i, target); got != want {
						t.Fatalf("%s: fwdSearch(%d,%d)=%d want %d", name, i, target, got, want)
					}
					if got, want := p.bwdSearch(i, target), naiveBwdSearch(exc, i, target); got != want {
						t.Fatalf("%s: bwdSearch(%d,%d)=%d want %d", name, i, target, got, want)
					}
				}
			}
		}
	}
}

// TestBwdSearchNeverReturnsArgument is the contract regression: for every
// position i, bwdSearch(i, Excess(i)) must return a strictly smaller
// position (or a no-answer sentinel), never i itself. On a deep chain the
// excess of each open is unique, so the old scanBwd, which checked the start
// position, returned i — masked only by callers pre-decrementing.
func TestBwdSearchNeverReturnsArgument(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	shapes := searchShapes()
	shapes["random"] = randomTreeParens(r, 1000)
	for name, parens := range shapes {
		p := NewFromBools(parens)
		exc := excessPrefix(parens)
		for i := 0; i < len(parens); i++ {
			got := p.bwdSearch(i, p.Excess(i))
			if got >= i {
				t.Fatalf("%s: bwdSearch(%d, Excess(%d)) = %d, not < %d", name, i, i, got, i)
			}
			if want := naiveBwdSearch(exc, i, p.Excess(i)); got != want {
				t.Fatalf("%s: bwdSearch(%d, Excess(%d)) = %d want %d", name, i, i, got, want)
			}
		}
	}
	// The sharpest case: on the opening half of a chain each excess value
	// occurs exactly once, so there is no earlier position to find.
	p := NewFromBools(deepChainParens(2000))
	for _, i := range []int{5, 600, 1999} {
		if got := p.bwdSearch(i, p.Excess(i)); got != -2 {
			t.Fatalf("chain: bwdSearch(%d, Excess(%d)) = %d want -2", i, i, got)
		}
	}
}

// TestSearchVirtualPosition pins the j == -1 family: target 0 is reachable
// at the virtual position -1 exactly when i >= 0, and never below.
func TestSearchVirtualPosition(t *testing.T) {
	p := NewFromBools(deepChainParens(1500)) // excess > 0 at every real position but the last
	n := p.Len()
	if got := p.bwdSearch(n-1, 0); got != -1 {
		t.Fatalf("bwdSearch(n-1, 0) = %d want -1", got)
	}
	if got := p.bwdSearch(0, 0); got != -1 {
		t.Fatalf("bwdSearch(0, 0) = %d want -1", got)
	}
	if got := p.bwdSearch(0, 1); got != -2 {
		t.Fatalf("bwdSearch(0, 1) = %d want -2", got)
	}
	// Excess(n-1) == 0: target 0 at the real position n-1 beats the virtual one.
	if got := p.bwdSearch(n, 0); got != n-1 {
		t.Fatalf("bwdSearch(n, 0) = %d want %d", got, n-1)
	}
}

// TestFwdSearchEdges pins the forward edge family the backward bug belonged
// to: last partial block, a target reachable only at j == n-1, and
// single-block documents.
func TestFwdSearchEdges(t *testing.T) {
	// Deep chain: excess returns to 0 only at the very last position, which
	// sits in a partial final block (6000 % 512 != 0).
	parens := deepChainParens(1500)
	p := NewFromBools(parens)
	n := p.Len()
	if n%blockBits == 0 {
		t.Fatalf("want a partial last block, n=%d", n)
	}
	for _, i := range []int{-1, 0, n / 2, n - 2} {
		if got := p.fwdSearch(i, 0); got != n-1 {
			t.Fatalf("fwdSearch(%d, 0) = %d want %d", i, got, n-1)
		}
	}
	// From the last position there is nothing ahead.
	if got := p.fwdSearch(n-1, 0); got != Nil {
		t.Fatal("fwdSearch past the end must be Nil")
	}
	// Single-block document: all answers come from the first scan.
	small := wideFlatParens(20)
	ps := NewFromBools(small)
	smallExc := excessPrefix(small)
	for i := -1; i < ps.Len(); i++ {
		for _, target := range []int{0, 1, 2, 3} {
			if got, want := ps.fwdSearch(i, target), naiveFwdSearch(smallExc, i, target); got != want {
				t.Fatalf("single-block fwdSearch(%d,%d)=%d want %d", i, target, got, want)
			}
		}
	}
}

// TestBlockWalks exercises nextBlock/prevBlock directly, including the
// single-leaf segment tree (segLeaves == 1), where the old climb loop could
// not reach the root-as-leaf node.
func TestBlockWalks(t *testing.T) {
	// Single block: the root of the segment tree is its only leaf.
	p := NewFromBools(wideFlatParens(50))
	if p.nBlocks != 1 || p.segLeaves != 1 {
		t.Fatalf("want single-leaf tree, got nBlocks=%d segLeaves=%d", p.nBlocks, p.segLeaves)
	}
	if got := p.nextBlock(0, 1, nil); got != 0 {
		t.Fatalf("nextBlock(0,1)=%d want 0", got)
	}
	if got := p.prevBlock(0, 2, nil); got != 0 {
		t.Fatalf("prevBlock(0,2)=%d want 0", got)
	}
	if got := p.nextBlock(0, 99, nil); got != -1 {
		t.Fatalf("nextBlock(0,99)=%d want -1", got)
	}
	if got := p.prevBlock(0, -7, nil); got != -1 {
		t.Fatalf("prevBlock(0,-7)=%d want -1", got)
	}
	// Out-of-range block arguments.
	if p.nextBlock(1, 1, nil) != -1 || p.prevBlock(-1, 1, nil) != -1 {
		t.Fatal("out-of-range block index must be -1")
	}
	// Multi-block: compare both walks against a linear scan of the leaves,
	// from every block and for targets in and out of range.
	p = NewFromBools(deepChainParens(3000))
	for b := 0; b < p.nBlocks; b++ {
		for _, target := range []int32{0, 1, 500, 1499, 3000, 5999, -1, 9999} {
			wantNext := -1
			for blk := b; blk < p.nBlocks; blk++ {
				if p.segMin[p.segLeaves+blk] <= target && target <= p.segMax[p.segLeaves+blk] {
					wantNext = blk
					break
				}
			}
			if got := p.nextBlock(b, target, nil); got != wantNext {
				t.Fatalf("nextBlock(%d,%d)=%d want %d", b, target, got, wantNext)
			}
			wantPrev := -1
			for blk := b; blk >= 0; blk-- {
				if p.segMin[p.segLeaves+blk] <= target && target <= p.segMax[p.segLeaves+blk] {
					wantPrev = blk
					break
				}
			}
			if got := p.prevBlock(b, target, nil); got != wantPrev {
				t.Fatalf("prevBlock(%d,%d)=%d want %d", b, target, got, wantPrev)
			}
		}
	}
}

// TestSearchVisitBounds is the whitebox complexity assertion: on a ~1M-paren
// document every search touches at most two blocks and O(log n) segment-tree
// nodes. The budget is 4*ceil(log2(segLeaves))+4: the climb and the descent
// each test at most two nodes per level.
func TestSearchVisitBounds(t *testing.T) {
	shapes := map[string][]bool{
		"deep-chain":  deepChainParens(1 << 19),
		"wide-flat":   wideFlatParens(1 << 19),
		"alternating": alternatingParens(1<<13, 64),
	}
	r := rand.New(rand.NewSource(11))
	for name, parens := range shapes {
		p := NewFromBools(parens)
		n := p.Len()
		segBudget := 4*int(math.Ceil(math.Log2(float64(p.segLeaves)))) + 4
		check := func(op string, c *navCounter) {
			t.Helper()
			if c.blocks > 2 {
				t.Fatalf("%s: %s scanned %d blocks, budget 2", name, op, c.blocks)
			}
			if c.segNodes > segBudget {
				t.Fatalf("%s: %s visited %d segment nodes, budget %d", name, op, c.segNodes, segBudget)
			}
		}
		positions := []int{0, 1, n / 3, n / 2, n - 2, n - 1}
		for k := 0; k < 50; k++ {
			positions = append(positions, r.Intn(n))
		}
		for _, i := range positions {
			e := p.Excess(i)
			for _, target := range []int{e - 1, e, e + 1, 0, e / 2} {
				var cb navCounter
				p.bwdSearchCounted(i, target, &cb)
				check("bwdSearch", &cb)
				var cf navCounter
				p.fwdSearchCounted(i, target, &cf)
				check("fwdSearch", &cf)
			}
		}
	}
}
