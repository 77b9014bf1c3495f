package bitvec_test

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/persist/persisttest"
	"repro/internal/tags"
)

// sparseRow decodes a fuzz input into a universe n < 1<<17 and the sorted
// positions of its ones: each 2-byte little-endian word of gaps is the
// distance to the next one minus one, and the row ends at the first one
// that would fall outside the universe.
func sparseRow(universe uint32, gaps []byte) (int, []int) {
	n := int(universe % (1 << 17))
	var pos []int
	for p := -1; len(gaps) >= 2; gaps = gaps[2:] {
		p += 1 + int(binary.LittleEndian.Uint16(gaps))
		if p >= n {
			break
		}
		pos = append(pos, p)
	}
	return n, pos
}

// gapBytes encodes gaps for sparseRow.
func gapBytes(gaps ...int) []byte {
	b := make([]byte, 0, 2*len(gaps))
	for _, g := range gaps {
		b = binary.LittleEndian.AppendUint16(b, uint16(g))
	}
	return b
}

// FuzzSparse is the one reference for the Elias–Fano rows: Rank1, Select1,
// NextOne, Get, Successor and Step of a sparse vector, of its stored and
// reloaded copy, and tags.Sequence.PrevOccurrence, Successor and Step over
// the same positions, against binary searches of the sorted position slice.
// Rows up to 8192 positions are queried everywhere; larger ones around
// every one, at both ends and at 4096 evenly spaced points. From every
// query point one Step follows Successor, and from every 64th, and from
// position 0, Step walks on to the end of the row.
func FuzzSparse(f *testing.F) {
	f.Add(uint32(0), []byte{})                      // empty universe
	f.Add(uint32(1000), []byte{})                   // empty row
	f.Add(uint32(300), make([]byte, 2*300))         // m = n: lowBits 0
	f.Add(uint32(1000), gapBytes(0, 998))           // ones at 0 and n-1
	f.Add(uint32(5000), gapBytes(1, 0, 0, 4, 2, 1)) // p > maxValue for most of the universe
	clustered := []int{39936}                       // 201 ones in one 256-wide bucket of a 64K row
	for i := 0; i < 200; i++ {
		clustered = append(clustered, 0)
	}
	f.Add(uint32(1<<16), gapBytes(append(clustered, 20000, 3000)...))
	r := rand.New(rand.NewSource(1))
	random := make([]byte, 4000)
	r.Read(random)
	f.Add(uint32(1<<16+123), random)
	f.Fuzz(func(t *testing.T, universe uint32, gaps []byte) {
		n, pos := sparseRow(universe, gaps)
		s := bitvec.NewSparse(n, pos)
		loaded, err := persisttest.Read(persisttest.Bytes(t, s), bitvec.ReadSparse)
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		ids := make([]int32, n)
		for _, p := range pos {
			ids[p] = 1
		}
		seq := tags.Build(ids, 2)
		m := len(pos)
		for _, v := range []*bitvec.Sparse{s, loaded} {
			if v.Len() != n || v.Ones() != m {
				t.Fatalf("n=%d m=%d: Len %d, Ones %d", n, m, v.Len(), v.Ones())
			}
			for j := -1; j <= m; j++ {
				want := -1
				if j >= 0 && j < m {
					want = pos[j]
				}
				if got := v.Select1(j); got != want {
					t.Fatalf("n=%d m=%d: Select1(%d) = %d, want %d", n, m, j, got, want)
				}
			}
		}
		for _, v := range []*bitvec.Sparse{s, loaded} {
			walkSteps(t, "Sparse", pos, 0, m, v.Successor, v.Step)
		}
		seqSucc := func(p int) (int, int) { return seq.Successor(1, p) }
		seqStep := func(k, p int) int { return seq.Step(1, k, p) }
		walkSteps(t, "Sequence", pos, 0, m, seqSucc, seqStep)
		for i, p := range queryPoints(n, pos) {
			steps := 1
			if i%64 == 0 {
				steps = m
			}
			for _, v := range []*bitvec.Sparse{s, loaded} {
				walkSteps(t, "Sparse", pos, p, steps, v.Successor, v.Step)
			}
			walkSteps(t, "Sequence", pos, p, steps, seqSucc, seqStep)
		}
		for _, p := range queryPoints(n, pos) {
			k := sort.SearchInts(pos, p) // ones < p
			next, prev := -1, -1
			if k < m {
				next = pos[k]
			}
			if k > 0 {
				prev = pos[k-1]
			}
			rank := k
			if p <= 0 {
				rank = 0
			}
			for _, v := range []*bitvec.Sparse{s, loaded} {
				if got := v.Rank1(p); got != rank {
					t.Fatalf("n=%d m=%d: Rank1(%d) = %d, want %d", n, m, p, got, rank)
				}
				if got := v.NextOne(p); got != next {
					t.Fatalf("n=%d m=%d: NextOne(%d) = %d, want %d", n, m, p, got, next)
				}
				if got := v.Get(p); got != (p >= 0 && next == p) {
					t.Fatalf("n=%d m=%d: Get(%d) = %v", n, m, p, got)
				}
			}
			if got := seq.PrevOccurrence(1, p); got != prev {
				t.Fatalf("n=%d m=%d: PrevOccurrence(%d) = %d, want %d", n, m, p, got, prev)
			}
		}
	})
}

// walkSteps checks succ(p) against the sorted positions — the index of the
// first one at or after p, and its position, or (len(pos), -1) — and then
// up to steps calls of step from there, each of which must return the
// following one, and -1 after the last.
func walkSteps(t *testing.T, what string, pos []int, p, steps int, succ func(int) (int, int), step func(k, v int) int) {
	t.Helper()
	k := sort.SearchInts(pos, max(p, 0))
	want := -1
	if k < len(pos) {
		want = pos[k]
	}
	gk, v := succ(p)
	if gk != k || v != want {
		t.Fatalf("m=%d: %s.Successor(%d) = (%d, %d), want (%d, %d)", len(pos), what, p, gk, v, k, want)
	}
	for i := 0; v >= 0 && i < steps; i++ {
		next := -1
		if k+1 < len(pos) {
			next = pos[k+1]
		}
		if got := step(k, v); got != next {
			t.Fatalf("m=%d: %s.Step(%d, %d) = %d, want %d", len(pos), what, k, v, got, next)
		}
		k, v = k+1, next
	}
}

// queryPoints lists the positions FuzzSparse checks: all of [-2, n+2) for a
// small universe, else both ends, the neighbourhood of every one and 4096
// evenly spaced points.
func queryPoints(n int, pos []int) []int {
	if n <= 1<<13 {
		ps := make([]int, 0, n+4)
		for p := -2; p < n+2; p++ {
			ps = append(ps, p)
		}
		return ps
	}
	ps := []int{-2, -1, 0, n - 1, n, n + 1}
	for _, p := range pos {
		ps = append(ps, p-1, p, p+1)
	}
	for i := 0; i < 4096; i++ {
		ps = append(ps, i*n/4096)
	}
	return ps
}

type benchRow struct {
	name string
	s    *bitvec.Sparse
}

// benchRows are the rows of the sparse benchmarks over a 4M universe:
// dense (one position in 4), sparse (one in 1000) and clustered (runs of
// 300 consecutive positions, which fill long buckets, 64K apart).
func benchRows() []benchRow {
	const n = 1 << 22
	r := rand.New(rand.NewSource(1))
	var dense, sparse, clustered []int
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			dense = append(dense, i)
		}
		if r.Intn(1000) == 0 {
			sparse = append(sparse, i)
		}
		if i&(1<<16-1) < 300 {
			clustered = append(clustered, i)
		}
	}
	return []benchRow{
		{"dense", bitvec.NewSparse(n, dense)},
		{"sparse", bitvec.NewSparse(n, sparse)},
		{"clustered", bitvec.NewSparse(n, clustered)},
	}
}

// benchPoints are pseudo-random query positions in the 4M universe.
func benchPoints() []int {
	r := rand.New(rand.NewSource(2))
	ps := make([]int, 1<<12)
	for i := range ps {
		ps[i] = r.Intn(1 << 22)
	}
	return ps
}

var benchSink int

func BenchmarkSparseNextOne(b *testing.B) {
	ps := benchPoints()
	for _, row := range benchRows() {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += row.s.NextOne(ps[i&(len(ps)-1)])
			}
		})
	}
}

func BenchmarkSparseRank1(b *testing.B) {
	ps := benchPoints()
	for _, row := range benchRows() {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += row.s.Rank1(ps[i&(len(ps)-1)])
			}
		})
	}
}
