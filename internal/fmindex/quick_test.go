package fmindex

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the core self-index invariants.

// collection is a quick.Generator producing small random text collections
// over a tiny alphabet (to force repeats and edge cases).
type collection [][]byte

func (collection) Generate(r *rand.Rand, size int) reflect.Value {
	d := 1 + r.Intn(6)
	texts := make(collection, d)
	for i := range texts {
		n := r.Intn(25)
		t := make([]byte, n)
		for j := range t {
			t[j] = byte('a' + r.Intn(3))
		}
		texts[i] = t
	}
	return reflect.ValueOf(texts)
}

type pattern []byte

func (pattern) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(4)
	p := make(pattern, n)
	for j := range p {
		p[j] = byte('a' + r.Intn(3))
	}
	return reflect.ValueOf(p)
}

var quickCfg = &quick.Config{MaxCount: 120}

// Invariant: extraction reproduces every text (the self-index property).
func TestQuickExtractRoundTrip(t *testing.T) {
	f := func(texts collection) bool {
		idx, err := NewCtx(context.Background(), texts, Options{SampleRate: 3})
		if err != nil {
			return false
		}
		for i, tx := range texts {
			if !bytes.Equal(idx.Extract(i), tx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Invariant: GlobalCount equals the number of occurrences reported by
// Locate, and every located occurrence is real.
func TestQuickCountLocateAgree(t *testing.T) {
	f := func(texts collection, p pattern) bool {
		idx, err := NewCtx(context.Background(), texts, Options{SampleRate: 2})
		if err != nil {
			return false
		}
		occs := idx.Locate(p)
		if len(occs) != idx.GlobalCount(p) {
			return false
		}
		for _, o := range occs {
			tx := texts[o.Text]
			if o.Offset+len(p) > len(tx) || !bytes.Equal(tx[o.Offset:o.Offset+len(p)], p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Invariant: the lexicographic partition Less + Equals + Greater covers the
// collection exactly.
func TestQuickLexPartition(t *testing.T) {
	f := func(texts collection, p pattern) bool {
		idx, err := NewCtx(context.Background(), texts, Options{SampleRate: 4})
		if err != nil {
			return false
		}
		lt := idx.LessThanCount(p)
		eq := idx.EqualsCount(p)
		gt := idx.GreaterThanCount(p)
		return lt+eq+gt == len(texts) && idx.LessEqCount(p) == lt+eq && idx.GreaterEqCount(p) == eq+gt
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Invariant: StartsWith ⊆ Contains, Equals ⊆ StartsWith ∩ EndsWith.
func TestQuickPredicateContainment(t *testing.T) {
	contains := func(set []int, x int) bool {
		for _, v := range set {
			if v == x {
				return true
			}
		}
		return false
	}
	f := func(texts collection, p pattern) bool {
		idx, err := NewCtx(context.Background(), texts, Options{SampleRate: 2})
		if err != nil {
			return false
		}
		cs := idx.Contains(p)
		for _, id := range idx.StartsWith(p) {
			if !contains(cs, id) {
				return false
			}
		}
		sw, ew := idx.StartsWith(p), idx.EndsWith(p)
		for _, id := range idx.Equals(p) {
			if !contains(sw, id) || !contains(ew, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Invariant: LF applied |T| times from any terminator row cycles through
// the whole collection (the BWT is a single-permutation cycle structure
// over text boundaries).
func TestQuickLFIsPermutation(t *testing.T) {
	f := func(texts collection) bool {
		idx, err := NewCtx(context.Background(), texts, Options{SampleRate: 2})
		if err != nil {
			return false
		}
		seen := make([]bool, idx.Size())
		i := 0
		for step := 0; step < idx.Size(); step++ {
			if seen[i] {
				return false
			}
			seen[i] = true
			i = idx.LF(i)
		}
		return i == 0 // back to the start after |T| steps
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
