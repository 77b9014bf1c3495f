// Package sais implements the SA-IS linear-time suffix array construction
// algorithm of Nong, Zhang and Chan over an integer alphabet. The FM-index
// construction (paper Section 3.3) builds the BWT from this suffix array.
// Working over an integer alphabet lets the text collection give every text
// terminator a distinct rank (terminator of text i sorts as value i), which
// realizes the paper's fixed ordering "the end-marker of the i-th text
// appears at F[i]" (Section 3.2). The word-based index (Section 6.6.2)
// reuses the same code over a word-identifier alphabet.
package sais

import (
	"context"
	"errors"
	"math"
)

// ErrTooLarge reports an input too long for the int32 position arithmetic
// of this implementation. Positions (including the internal sentinel) are
// stored as int32, so inputs of 2^31-1 symbols or more would silently
// corrupt the suffix array; every entry point rejects them instead.
var ErrTooLarge = errors.New("sais: input too large for int32 positions (>= 2^31-1 symbols)")

// maxInput is the largest supported input length: the internal sentinel
// occupies position len(s), which must still fit an int32.
const maxInput = math.MaxInt32 - 1

// CheckSize reports ErrTooLarge when an input of n symbols would overflow
// the int32 position arithmetic. Callers that derive n without holding the
// input (e.g. summing text lengths) share the same boundary through it.
func CheckSize(n int) error {
	if n > maxInput {
		return ErrTooLarge
	}
	return nil
}

// pollStride is how many induced-sort steps run between context polls: large
// enough that the atomic-free countdown is invisible in profiles, small
// enough that cancellation latency stays in the low milliseconds.
const pollStride = 1 << 17

// Compute returns the suffix array of s, whose values must lie in [0, k).
// Suffixes are compared as usual; no sentinel is required (one is appended
// internally). Inputs of 2^31-1 symbols or more return ErrTooLarge. The
// induced-sorting loops poll ctx at bounded intervals (every pollStride
// positions, across recursion levels) and return its error once it is done.
func Compute(ctx context.Context, s []int32, k int) ([]int32, error) {
	n := len(s)
	if err := CheckSize(n); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Shift values by +1 and append a unique smallest sentinel 0 so that the
	// core algorithm's precondition (unique minimal last symbol) holds. The
	// copy is O(n) like everything else here, so it shares the poller.
	pl := newPoller(ctx)
	t := make([]int32, n+1)
	for base := 0; base < n; base += pollStride {
		end := min(base+pollStride, n)
		for i := base; i < end; i++ {
			t[i] = s[i] + 1
		}
		if err := pl.tick(end - base); err != nil {
			return nil, err
		}
	}
	t[n] = 0
	sa := make([]int32, n+1)
	if err := saisCore(t, sa, int32(k)+1, pl); err != nil {
		return nil, err
	}
	return sa[1:], nil // drop the sentinel suffix, which always sorts first
}

// poller checks a context every pollStride ticks. One poller is threaded
// through the whole recursion so the interval is bounded globally, not per
// level. A nil context never polls (zero overhead beyond the countdown).
type poller struct {
	ctx   context.Context
	count int
}

func newPoller(ctx context.Context) *poller {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable context: skip the Err calls entirely
	}
	return &poller{ctx: ctx}
}

// tick accounts for work units and polls once per stride.
func (p *poller) tick(units int) error {
	p.count += units
	if p.count < pollStride {
		return nil
	}
	p.count = 0
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// saisCore computes the suffix array of s into sa. s must end with a unique
// minimal symbol. Alphabet size is k.
func saisCore(s []int32, sa []int32, k int32, pl *poller) error {
	n := len(s)
	if n == 0 {
		return nil
	}
	if n == 1 {
		sa[0] = 0
		return nil
	}
	if n == 2 {
		if s[0] < s[1] {
			sa[0], sa[1] = 0, 1
		} else {
			sa[0], sa[1] = 1, 0
		}
		return nil
	}

	// Classify suffix types: sType[i] == true iff suffix i is S-type.
	sType := make([]bool, n)
	sType[n-1] = true
	for i := n - 2; i >= 0; i-- {
		sType[i] = s[i] < s[i+1] || (s[i] == s[i+1] && sType[i+1])
	}
	if err := pl.tick(n); err != nil {
		return err
	}
	isLMS := func(i int) bool { return i > 0 && sType[i] && !sType[i-1] }

	bkt := make([]int32, k)
	bucketBounds := func(end bool) {
		for i := range bkt {
			bkt[i] = 0
		}
		for _, c := range s {
			bkt[c]++
		}
		var sum int32
		for i := int32(0); i < k; i++ {
			sum += bkt[i]
			if end {
				bkt[i] = sum
			} else {
				bkt[i] = sum - bkt[i]
			}
		}
	}

	induceL := func() error {
		bucketBounds(false)
		for i := 0; i < n; i++ {
			j := sa[i] - 1
			if sa[i] > 0 && !sType[j] {
				sa[bkt[s[j]]] = j
				bkt[s[j]]++
			}
		}
		return pl.tick(n)
	}
	induceS := func() error {
		bucketBounds(true)
		for i := n - 1; i >= 0; i-- {
			j := sa[i] - 1
			if sa[i] > 0 && sType[j] {
				bkt[s[j]]--
				sa[bkt[s[j]]] = j
			}
		}
		return pl.tick(n)
	}

	// Stage 1: sort LMS substrings by induced sorting.
	for i := 0; i < n; i++ {
		sa[i] = -1
	}
	bucketBounds(true)
	for i := 1; i < n; i++ {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = int32(i)
		}
	}
	if err := induceL(); err != nil {
		return err
	}
	if err := induceS(); err != nil {
		return err
	}

	// Compact the sorted LMS positions into sa[0:n1].
	n1 := 0
	for i := 0; i < n; i++ {
		if isLMS(int(sa[i])) {
			sa[n1] = sa[i]
			n1++
		}
	}
	for i := n1; i < n; i++ {
		sa[i] = -1
	}

	// Name LMS substrings; store names at sa[n1 + pos/2].
	name := int32(0)
	prev := -1
	for i := 0; i < n1; i++ {
		pos := int(sa[i])
		diff := false
		if prev < 0 {
			diff = true
		} else {
			for d := 0; ; d++ {
				if s[pos+d] != s[prev+d] || sType[pos+d] != sType[prev+d] {
					diff = true
					break
				}
				if d > 0 && (isLMS(pos+d) || isLMS(prev+d)) {
					break
				}
			}
		}
		if diff {
			name++
			prev = pos
		}
		sa[n1+pos/2] = name - 1
	}
	if err := pl.tick(n); err != nil {
		return err
	}
	// Compact names to the tail of sa, forming the reduced string s1.
	j := n - 1
	for i := n - 1; i >= n1; i-- {
		if sa[i] >= 0 {
			sa[j] = sa[i]
			j--
		}
	}
	s1 := sa[n-n1 : n]

	// Stage 2: sort the reduced problem.
	if int(name) < n1 {
		sub := make([]int32, n1)
		copy(sub, s1)
		if err := saisCore(sub, sa[:n1], name, pl); err != nil {
			return err
		}
	} else {
		for i := 0; i < n1; i++ {
			sa[s1[i]] = int32(i)
		}
	}

	// Stage 3: induce the full suffix array from the sorted LMS suffixes.
	// Rebuild the LMS position list into s1 (tail of sa).
	j = 0
	for i := 1; i < n; i++ {
		if isLMS(i) {
			s1[j] = int32(i)
			j++
		}
	}
	for i := 0; i < n1; i++ {
		sa[i] = s1[sa[i]]
	}
	for i := n1; i < n; i++ {
		sa[i] = -1
	}
	bucketBounds(true)
	for i := n1 - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = -1
		bkt[s[p]]--
		sa[bkt[s[p]]] = p
	}
	if err := induceL(); err != nil {
		return err
	}
	return induceS()
}

// ComputeBytes returns the suffix array of a byte string (alphabet 256).
func ComputeBytes(s []byte) ([]int32, error) {
	if err := CheckSize(len(s)); err != nil {
		return nil, err
	}
	t := make([]int32, len(s))
	for i, c := range s {
		t[i] = int32(c)
	}
	return Compute(context.Background(), t, 256)
}
