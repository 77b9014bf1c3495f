package pssm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fmindex"
)

func randDNA(r *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = Alphabet[r.Intn(4)]
	}
	return s
}

func TestFromPFMScores(t *testing.T) {
	m := FromPFM("t", [][4]int{{10, 0, 0, 0}, {0, 10, 0, 0}})
	// "AC" must be the best-scoring dinucleotide.
	best := m.Score([]byte("AC"), 0)
	for _, s := range []string{"AA", "CC", "TG", "GT"} {
		if sc := m.Score([]byte(s), 0); sc >= best {
			t.Fatalf("score(%s)=%f >= score(AC)=%f", s, sc, best)
		}
	}
	if !math.IsNaN(m.Score([]byte("A"), 0)) {
		t.Fatal("short window should be NaN")
	}
	if !math.IsNaN(m.Score([]byte("NN"), 0)) {
		t.Fatal("non-ACGT should be NaN")
	}
}

func TestMaxScoreIsUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := M1()
	max := m.MaxScore()
	for trial := 0; trial < 1000; trial++ {
		s := m.Score(randDNA(r, m.Len()), 0)
		if s > max+1e-9 {
			t.Fatalf("score %f exceeds max %f", s, max)
		}
	}
}

func TestSearchMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var texts [][]byte
		for i := 0; i < 15; i++ {
			texts = append(texts, randDNA(r, 100+r.Intn(200)))
		}
		fm, err := fmindex.NewCtx(context.Background(), texts, fmindex.Options{SampleRate: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Matrix{M1(), M2(), M3()} {
			for _, frac := range []float64{0.5, 0.7, 0.9} {
				threshold := m.MaxScore() * frac
				got := Search(fm, &m, threshold)
				want := ScanTexts(texts, &m, threshold)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s thr=%.2f: search=%v scan=%v", m.Name, threshold, got, want)
				}
			}
		}
	}
}

func TestSearchPrunes(t *testing.T) {
	// With a threshold above MaxScore nothing can match and the DFS should
	// return quickly with no results.
	r := rand.New(rand.NewSource(9))
	texts := [][]byte{randDNA(r, 5000)}
	fm, _ := fmindex.NewCtx(context.Background(), texts, fmindex.Options{})
	m := M2()
	if got := Search(fm, &m, m.MaxScore()+1); len(got) != 0 {
		t.Fatalf("impossible threshold matched %d", len(got))
	}
}

func TestDistinctTexts(t *testing.T) {
	occs := []fmindex.Occurrence{{Text: 3, Offset: 1}, {Text: 1, Offset: 0}, {Text: 3, Offset: 9}}
	ids := DistinctTexts(occs)
	if fmt.Sprint(ids) != "[1 3]" {
		t.Fatalf("ids=%v", ids)
	}
}

func TestEmbeddedMatrixLengths(t *testing.T) {
	// The paper's matrices have lengths 8, 12, 14 (Figure 18).
	if m := M1(); m.Len() != 8 {
		t.Fatal("M1 length")
	}
	if m := M2(); m.Len() != 12 {
		t.Fatal("M2 length")
	}
	if m := M3(); m.Len() != 14 {
		t.Fatal("M3 length")
	}
}

func TestSearchOnEmptyIndex(t *testing.T) {
	fm, _ := fmindex.NewCtx(context.Background(), nil, fmindex.Options{})
	m := M1()
	if got := Search(fm, &m, 0); got != nil {
		t.Fatal("empty index")
	}
}

func BenchmarkPSSMSearchVsScan(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var texts [][]byte
	for i := 0; i < 50; i++ {
		texts = append(texts, randDNA(r, 2000))
	}
	fm, _ := fmindex.NewCtx(context.Background(), texts, fmindex.Options{SampleRate: 16})
	m := M3()
	thr := m.MaxScore() * 0.8
	b.Run("fm-backtrack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Search(fm, &m, thr)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScanTexts(texts, &m, thr)
		}
	})
}
