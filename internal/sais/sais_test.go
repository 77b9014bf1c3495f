package sais

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveSA computes the suffix array by direct comparison.
func naiveSA(s []int32) []int32 {
	n := len(s)
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		i, j := int(sa[a]), int(sa[b])
		for i < n && j < n {
			if s[i] != s[j] {
				return s[i] < s[j]
			}
			i++
			j++
		}
		return i == n && j < n
	})
	return sa
}

func equalSA(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func check(t *testing.T, s []int32, k int) {
	t.Helper()
	got, err := Compute(context.Background(), s, k)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSA(s)
	if !equalSA(got, want) {
		t.Fatalf("SA mismatch for %v:\n got %v\nwant %v", s, got, want)
	}
}

func toInt32(s string) []int32 {
	r := make([]int32, len(s))
	for i := range s {
		r[i] = int32(s[i])
	}
	return r
}

func TestKnownStrings(t *testing.T) {
	for _, s := range []string{
		"banana", "mississippi", "abracadabra", "aaaa", "abcd", "dcba",
		"discontinued", "abab", "baba", "a", "ab", "ba", "aa",
	} {
		check(t, toInt32(s), 256)
	}
}

func TestEmpty(t *testing.T) {
	got, err := Compute(context.Background(), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("empty SA should be nil, got %v", got)
	}
}

func TestMultiTerminator(t *testing.T) {
	// Simulates the text-collection encoding: texts "ab", "ab", "b" with
	// distinct terminators 0,1,2 and characters offset by 3.
	d := int32(3)
	a, b := d+'a', d+'b'
	s := []int32{a, b, 0, a, b, 1, b, 2}
	check(t, s, int(d)+256)
	// First d entries of the SA must be the terminator positions in text order.
	sa, err := Compute(context.Background(), s, int(d)+256)
	if err != nil {
		t.Fatal(err)
	}
	if sa[0] != 2 || sa[1] != 5 || sa[2] != 7 {
		t.Fatalf("terminator ordering violated: %v", sa[:3])
	}
}

func TestRandomSmallAlphabet(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(4)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(r.Intn(k))
		}
		check(t, s, k)
	}
}

func TestRandomLargerAlphabet(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(500)
		k := 2 + r.Intn(100)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(r.Intn(k))
		}
		check(t, s, k)
	}
}

func TestRepetitive(t *testing.T) {
	// Highly repetitive input (the DNA case of Section 6.7).
	r := rand.New(rand.NewSource(17))
	motif := make([]int32, 50)
	for i := range motif {
		motif[i] = int32(r.Intn(4))
	}
	var s []int32
	for rep := 0; rep < 20; rep++ {
		s = append(s, motif...)
		if r.Intn(3) == 0 {
			s = append(s, int32(r.Intn(4)))
		}
	}
	check(t, s, 4)
}

func TestComputeBytes(t *testing.T) {
	got, err := ComputeBytes([]byte("banana"))
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSA(toInt32("banana"))
	if !equalSA(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLargeRandomConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n := 100000
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(r.Intn(8))
	}
	sa, err := Compute(context.Background(), s, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Verify it is a permutation and sorted (adjacent comparisons only).
	seen := make([]bool, n)
	for _, p := range sa {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
	for i := 1; i < n; i++ {
		if !suffixLess(s, int(sa[i-1]), int(sa[i])) {
			t.Fatalf("suffixes %d,%d out of order at rank %d", sa[i-1], sa[i], i)
		}
	}
}

func suffixLess(s []int32, i, j int) bool {
	n := len(s)
	for i < n && j < n {
		if s[i] != s[j] {
			return s[i] < s[j]
		}
		i++
		j++
	}
	return i == n
}

func BenchmarkSAIS1MB(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := make([]int32, 1<<20)
	for i := range s {
		s[i] = int32(r.Intn(60))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(context.Background(), s, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// TestErrTooLarge pins the int32 overflow guard at its exact boundary
// without allocating gigabytes: CheckSize carries the guard logic, and the
// entry points route through it (pinned on a representative fake length via
// the exported check; Compute itself is exercised at the small end).
func TestErrTooLarge(t *testing.T) {
	if err := CheckSize(math.MaxInt32 - 1); err != nil {
		t.Fatalf("n = 2^31-2 must be accepted, got %v", err)
	}
	if err := CheckSize(math.MaxInt32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("n = 2^31-1 must return ErrTooLarge, got %v", err)
	}
	if err := CheckSize(math.MaxInt32 + 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("n = 2^31 must return ErrTooLarge, got %v", err)
	}
	// A normal-size input through the real entry points stays error-free.
	if _, err := Compute(context.Background(), []int32{1, 0, 1}, 2); err != nil {
		t.Fatalf("small Compute: %v", err)
	}
	if _, err := ComputeBytes([]byte("ok")); err != nil {
		t.Fatalf("small ComputeBytes: %v", err)
	}
}

// cancelAfterFirstPoll is a context that reports itself done as soon as its
// Err method has been consulted once: the run is guaranteed to be past the
// entry check and mid-induced-sort, so the test pins that the inner loops
// really poll (mirrors the query-side pollCtx pattern of the xpath tests).
type cancelAfterFirstPoll struct {
	context.Context
	polled bool
}

func (c *cancelAfterFirstPoll) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func (c *cancelAfterFirstPoll) Err() error {
	if c.polled {
		return context.Canceled
	}
	c.polled = true
	return nil
}

// TestComputeCtxCancel is the regression test for the build-cancellation
// bugfix: a cancelled context aborts the suffix sort mid-flight with
// context.Canceled instead of running to completion.
func TestComputeCtxCancel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := make([]int32, 1<<20)
	for i := range s {
		s[i] = int32(r.Intn(4))
	}
	ctx := &cancelAfterFirstPoll{Context: context.Background()}
	if _, err := Compute(ctx, s, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	if !ctx.polled {
		t.Fatal("the sort never polled the context")
	}
	// An uncancelled run over the same input still succeeds.
	if _, err := Compute(context.Background(), s, 4); err != nil {
		t.Fatal(err)
	}
}
