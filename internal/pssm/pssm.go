// Package pssm implements Position Specific Scoring Matrix search over DNA
// texts (Section 6.7): a Position Frequency Matrix is converted to log-odds
// form, and matches above a threshold are found either by a plain scan or
// by branch-and-bound backtracking over the FM-index (the backtracking
// framework of Section 3.2 [41]): the pattern space {A,C,G,T}^L is explored
// right-to-left with backward-search interval narrowing, pruning a branch
// as soon as its best achievable score falls below the threshold.
package pssm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fmindex"
)

// Alphabet is the DNA nucleotide order used for matrix rows.
var Alphabet = [4]byte{'A', 'C', 'G', 'T'}

func baseIndex(c byte) int {
	switch c {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	}
	return -1
}

// Matrix is a PSSM in log-odds form. Cols[i][b] scores nucleotide b at
// pattern position i.
type Matrix struct {
	Name string
	Cols [][4]float64
}

// Len returns the pattern length.
func (m *Matrix) Len() int { return len(m.Cols) }

// FromPFM converts a Position Frequency Matrix (counts per position) into
// log-odds form against a uniform background with pseudocount smoothing, as
// done for the JASPAR matrices of Figure 18.
func FromPFM(name string, counts [][4]int) Matrix {
	m := Matrix{Name: name, Cols: make([][4]float64, len(counts))}
	for i, col := range counts {
		total := 0
		for _, c := range col {
			total += c
		}
		for b := 0; b < 4; b++ {
			p := (float64(col[b]) + 1) / (float64(total) + 4)
			m.Cols[i][b] = math.Log2(p / 0.25)
		}
	}
	return m
}

// Score scores the window seq[pos : pos+Len()]; NaN if out of range or a
// non-ACGT character occurs.
func (m *Matrix) Score(seq []byte, pos int) float64 {
	if pos < 0 || pos+m.Len() > len(seq) {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < m.Len(); i++ {
		b := baseIndex(seq[pos+i])
		if b < 0 {
			return math.NaN()
		}
		s += m.Cols[i][b]
	}
	return s
}

// MaxScore returns the best achievable score.
func (m *Matrix) MaxScore() float64 {
	s := 0.0
	for _, col := range m.Cols {
		best := col[0]
		for _, v := range col[1:] {
			if v > best {
				best = v
			}
		}
		s += best
	}
	return s
}

// ScanTexts finds all windows scoring >= threshold by brute force.
func ScanTexts(texts [][]byte, m *Matrix, threshold float64) []fmindex.Occurrence {
	var out []fmindex.Occurrence
	for id, t := range texts {
		for pos := 0; pos+m.Len() <= len(t); pos++ {
			if s := m.Score(t, pos); !math.IsNaN(s) && s >= threshold {
				out = append(out, fmindex.Occurrence{Text: id, Offset: pos})
			}
		}
	}
	return out
}

// Search finds all windows scoring >= threshold using branch-and-bound
// backtracking over the FM-index. Matrix columns are consumed last-to-first
// so each DFS step is one backward-search extension.
func Search(fm *fmindex.Index, m *Matrix, threshold float64) []fmindex.Occurrence {
	L := m.Len()
	if L == 0 || fm.Size() == 0 {
		return nil
	}
	// bestPrefix[i] = max achievable score of columns [0, i).
	bestPrefix := make([]float64, L+1)
	for i := 0; i < L; i++ {
		best := m.Cols[i][0]
		for _, v := range m.Cols[i][1:] {
			if v > best {
				best = v
			}
		}
		bestPrefix[i+1] = bestPrefix[i] + best
	}
	var out []fmindex.Occurrence
	var dfs func(col int, sp, ep int, score float64)
	dfs = func(col int, sp, ep int, score float64) {
		if col < 0 {
			for i := sp; i < ep; i++ {
				// One located occurrence per matching BWT row.
				out = append(out, fm.LocateRow(i))
			}
			return
		}
		for b := 0; b < 4; b++ {
			s := score + m.Cols[col][b]
			if s+bestPrefix[col] < threshold {
				continue
			}
			nsp, nep := fm.Step(Alphabet[b], sp, ep)
			if nsp >= nep {
				continue
			}
			dfs(col-1, nsp, nep, s)
		}
	}
	dfs(L-1, 0, fm.Size(), 0)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Text != out[b].Text {
			return out[a].Text < out[b].Text
		}
		return out[a].Offset < out[b].Offset
	})
	return out
}

// DistinctTexts reduces occurrences to the sorted set of text identifiers.
func DistinctTexts(occs []fmindex.Occurrence) []int32 {
	seen := map[int]struct{}{}
	for _, o := range occs {
		seen[o.Text] = struct{}{}
	}
	out := make([]int32, 0, len(seen))
	for t := range seen {
		out = append(out, int32(t))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// --- Embedded matrices for the Figure 18 experiments ---
//
// The paper uses JASPAR matrices MA0031.1 (length 8), MA0050.1 (length 12)
// and MA0017.1 (length 14). The database is not redistributable here, so we
// embed frequency matrices of the same lengths with realistic skew
// (substitution documented in DESIGN.md); the search machinery is identical.

// M1 is an 8-column matrix (stand-in for JASPAR MA0031.1, FOXD1).
func M1() Matrix {
	return FromPFM("M1", [][4]int{
		{5, 2, 3, 40}, {2, 1, 2, 45}, {40, 3, 4, 3}, {2, 2, 3, 43},
		{3, 2, 2, 43}, {5, 3, 38, 4}, {6, 4, 3, 37}, {20, 10, 10, 10},
	})
}

// M2 is a 12-column matrix (stand-in for JASPAR MA0050.1, IRF1).
func M2() Matrix {
	return FromPFM("M2", [][4]int{
		{10, 5, 5, 30}, {5, 3, 2, 40}, {3, 2, 3, 42}, {30, 5, 10, 5},
		{40, 3, 4, 3}, {5, 35, 5, 5}, {4, 4, 38, 4}, {30, 6, 7, 7},
		{35, 5, 5, 5}, {5, 5, 35, 5}, {6, 6, 6, 32}, {12, 13, 12, 13},
	})
}

// M3 is a 14-column matrix (stand-in for JASPAR MA0017.1, NR2F1).
func M3() Matrix {
	return FromPFM("M3", [][4]int{
		{10, 10, 15, 15}, {5, 5, 35, 5}, {4, 4, 4, 38}, {5, 35, 5, 5},
		{35, 5, 5, 5}, {5, 5, 5, 35}, {30, 7, 7, 6}, {6, 6, 32, 6},
		{6, 32, 6, 6}, {32, 6, 6, 6}, {7, 7, 29, 7}, {8, 8, 8, 26},
		{26, 8, 8, 8}, {12, 13, 13, 12},
	})
}

func (m *Matrix) String() string {
	return fmt.Sprintf("pssm[%s len=%d max=%.1f]", m.Name, m.Len(), m.MaxScore())
}
