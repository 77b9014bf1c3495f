package bitvec

import (
	"math/rand"
	"testing"
)

// naiveRank counts ones in b[0:i].
func naiveRank(b []bool, i int) int {
	c := 0
	for j := 0; j < i && j < len(b); j++ {
		if b[j] {
			c++
		}
	}
	return c
}

func randBools(r *rand.Rand, n int, density float64) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = r.Float64() < density
	}
	return b
}

func TestVectorRankSelectAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000, 4096, 10000} {
		for _, dens := range []float64{0, 0.01, 0.5, 0.99, 1} {
			b := randBools(r, n, dens)
			v := FromBools(b)
			if v.Len() != n {
				t.Fatalf("len=%d want %d", v.Len(), n)
			}
			ones := naiveRank(b, n)
			if v.Ones() != ones {
				t.Fatalf("ones=%d want %d (n=%d d=%v)", v.Ones(), ones, n, dens)
			}
			// Spot check ranks at many positions.
			step := 1
			if n > 300 {
				step = n / 100
			}
			for i := 0; i <= n; i += step {
				if got := v.Rank1(i); got != naiveRank(b, i) {
					t.Fatalf("rank1(%d)=%d want %d (n=%d d=%v)", i, got, naiveRank(b, i), n, dens)
				}
				if got := v.Rank0(i); got != i-naiveRank(b, i) {
					t.Fatalf("rank0(%d)=%d (n=%d)", i, got, n)
				}
			}
			// Full select check.
			k1, k0 := 0, 0
			for i := 0; i < n; i++ {
				if b[i] {
					if got := v.Select1(k1); got != i {
						t.Fatalf("select1(%d)=%d want %d", k1, got, i)
					}
					k1++
				} else {
					if got := v.Select0(k0); got != i {
						t.Fatalf("select0(%d)=%d want %d", k0, got, i)
					}
					k0++
				}
			}
			if v.Select1(k1) != -1 || v.Select0(k0) != -1 {
				t.Fatal("select beyond count should be -1")
			}
		}
	}
}

// TestSelectSampled stresses the sampled select path on vectors big enough
// to hold many samples, including adversarial layouts where consecutive
// samples are many superblocks apart (a dense cluster followed by a long
// empty gap and a final stretch of ones).
func TestSelectSampled(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	build := func(n int, set func(i int) bool) (*Vector, []int) {
		v := New(n)
		var ones []int
		for i := 0; i < n; i++ {
			if set(i) {
				v.Set(i)
				ones = append(ones, i)
			}
		}
		v.Build()
		return v, ones
	}
	shapes := map[string]struct {
		n   int
		set func(i int) bool
	}{
		"dense":       {1 << 17, func(i int) bool { return r.Intn(2) == 0 }},
		"all-ones":    {1<<16 + 37, func(i int) bool { return true }},
		"cluster-gap": {1 << 18, func(i int) bool { return i < 2000 || i >= 1<<18-2000 }},
		"sparse":      {1 << 18, func(i int) bool { return r.Intn(300) == 0 }},
		"runs":        {1 << 17, func(i int) bool { return i/4096%2 == 0 }},
	}
	for name, s := range shapes {
		v, ones := build(s.n, s.set)
		if v.Ones() != len(ones) {
			t.Fatalf("%s: ones=%d want %d", name, v.Ones(), len(ones))
		}
		for j, p := range ones {
			if got := v.Select1(j); got != p {
				t.Fatalf("%s: Select1(%d)=%d want %d", name, j, got, p)
			}
		}
		// Select0 against rank-based inversion, sampled positions.
		zeros := v.Len() - v.Ones()
		for k := 0; k < 3000 && k < zeros; k++ {
			j := k
			if zeros > 3000 {
				j = r.Intn(zeros)
			}
			got := v.Select0(j)
			if got < 0 || v.Get(got) || v.Rank0(got) != j {
				t.Fatalf("%s: Select0(%d)=%d (rank0=%d)", name, j, got, v.Rank0(got))
			}
		}
		if v.Select1(v.Ones()) != -1 || v.Select0(zeros) != -1 {
			t.Fatalf("%s: select past the end must be -1", name)
		}
	}
}

func TestVectorGetSet(t *testing.T) {
	v := New(100)
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(99)
	v.Build()
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Get(1) || v.Get(65) {
		t.Error("unexpected set bit")
	}
	if v.Rank1(100) != 4 {
		t.Errorf("rank1(100)=%d", v.Rank1(100))
	}
}

func TestVectorAppendBit(t *testing.T) {
	v := &Vector{}
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 200; i++ {
		v.AppendBit(pattern[i%len(pattern)])
	}
	v.Build()
	if v.Len() != 200 {
		t.Fatalf("len=%d", v.Len())
	}
	for i := 0; i < 200; i++ {
		if v.Get(i) != pattern[i%len(pattern)] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if v.Ones() != 120 {
		t.Fatalf("ones=%d want 120", v.Ones())
	}
}

func TestVectorRankEdge(t *testing.T) {
	v := FromBools([]bool{true})
	if v.Rank1(0) != 0 || v.Rank1(1) != 1 || v.Rank1(5) != 1 {
		t.Error("edge rank wrong")
	}
	if v.Rank1(-3) != 0 {
		t.Error("negative rank should be 0")
	}
	empty := FromBools(nil)
	if empty.Rank1(0) != 0 || empty.Select1(0) != -1 {
		t.Error("empty vector behaviour")
	}
}

func TestSparseAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 10, 100, 1000, 100000} {
		for _, m := range []int{0, 1, 2, 5, 50} {
			if m > n {
				continue
			}
			// pick m distinct sorted positions
			perm := r.Perm(n)[:m]
			pos := append([]int(nil), perm...)
			sortInts(pos)
			s := NewSparse(n, pos)
			if s.Ones() != m {
				t.Fatalf("ones=%d want %d", s.Ones(), m)
			}
			for j, p := range pos {
				if got := s.Select1(j); got != p {
					t.Fatalf("n=%d m=%d select1(%d)=%d want %d", n, m, j, got, p)
				}
			}
			// rank at every position for small n, sampled for large
			step := 1
			if n > 2000 {
				step = n / 500
			}
			want := 0
			idx := 0
			for i := 0; i <= n; i++ {
				if i%step == 0 || i == n {
					if got := s.Rank1(i); got != want {
						t.Fatalf("n=%d m=%d rank1(%d)=%d want %d pos=%v", n, m, i, got, want, pos)
					}
				}
				if idx < len(pos) && pos[idx] == i {
					want++
					idx++
				}
			}
		}
	}
}

func TestSparseNextOne(t *testing.T) {
	s := NewSparse(100, []int{3, 17, 55, 99})
	cases := []struct{ p, want int }{{0, 3}, {3, 3}, {4, 17}, {18, 55}, {56, 99}, {99, 99}}
	for _, c := range cases {
		if got := s.NextOne(c.p); got != c.want {
			t.Errorf("NextOne(%d)=%d want %d", c.p, got, c.want)
		}
	}
	if s.NextOne(100) != -1 {
		t.Error("NextOne past end should be -1")
	}
}

func TestSparseGet(t *testing.T) {
	pos := []int{0, 5, 64, 65, 1023}
	s := NewSparse(1024, pos)
	set := map[int]bool{}
	for _, p := range pos {
		set[p] = true
	}
	for i := 0; i < 1024; i++ {
		if s.Get(i) != set[i] {
			t.Fatalf("Get(%d)=%v", i, s.Get(i))
		}
	}
}

func TestSparseDense(t *testing.T) {
	// All positions set: lowBits becomes 0.
	n := 300
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	s := NewSparse(n, pos)
	for i := 0; i <= n; i++ {
		if got := s.Rank1(i); got != i {
			t.Fatalf("rank1(%d)=%d", i, got)
		}
	}
	for j := 0; j < n; j++ {
		if s.Select1(j) != j {
			t.Fatalf("select1(%d)=%d", j, s.Select1(j))
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func BenchmarkVectorRank(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := FromBools(randBools(r, 1<<20, 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(i & (1<<20 - 1))
	}
}

func BenchmarkVectorSelect(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := FromBools(randBools(r, 1<<20, 0.5))
	ones := v.Ones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(i % ones)
	}
}
