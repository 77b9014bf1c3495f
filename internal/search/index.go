package search

import (
	"context"
	"math"
	"sort"
)

// Snapshot is a point-in-time set of named document postings: the
// document→postings map (postings values are immutable) and the aggregate
// token count. Nothing modifies a snapshot once it is built, so scoring
// one is unaffected by whatever the registry it came from does next.
type Snapshot struct {
	Docs  map[string]*DocPostings
	Total int64
}

// Index is a read-only snapshot under its own name: what
// collection.Collection.SearchIndex assembles from its engines for tests
// and tools. A serving collection keeps none — it derives a Snapshot from
// its registry per search.
type Index Snapshot

// Snapshot returns the index's documents and token count; the map is
// shared, and neither side modifies it.
func (ix *Index) Snapshot() Snapshot { return Snapshot(*ix) }

// AvgLen returns the average document length in tokens (1 when the
// snapshot is empty or all-empty, so BM25 normalization never divides by
// zero).
func (s Snapshot) AvgLen() float64 {
	if len(s.Docs) == 0 || s.Total == 0 {
		return 1
	}
	return float64(s.Total) / float64(len(s.Docs))
}

// pollStride bounds how many documents a scoring loop may process between
// context polls.
const pollStride = 256

// pollCtx is the shared cancellation poll of the scoring loops: it checks
// ctx every pollStride increments of *n.
func pollCtx(ctx context.Context, n *int) error {
	*n++
	if *n%pollStride == 0 {
		return ctx.Err()
	}
	return nil
}

// Candidates returns, sorted by name, the snapshot documents whose
// postings contain every word term of the query (phrase terms are
// resolved later, against the FM-index of each candidate). With no word
// terms at all, every document is a candidate.
func Candidates(ctx context.Context, s Snapshot, terms []Term) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var words []string
	polls := 0
	for _, t := range terms {
		if err := pollCtx(ctx, &polls); err != nil {
			return nil, err
		}
		if !t.Phrase {
			words = append(words, t.Text)
		}
	}
	cands := make([]string, 0, len(s.Docs))
	for name, dp := range s.Docs {
		if err := pollCtx(ctx, &polls); err != nil {
			return nil, err
		}
		ok := true
		for _, w := range words {
			if dp.TF(w) == 0 {
				ok = false
				break
			}
		}
		if ok {
			cands = append(cands, name)
		}
	}
	sort.Strings(cands)
	return cands, nil
}

// BM25 parameters (the standard Robertson/Walker defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// idf is the BM25 inverse document frequency of a term appearing in df of
// n documents: ln(1 + (n-df+0.5)/(df+0.5)), always positive.
func idf(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// bm25Term is one term's score contribution given its frequency tf in a
// document of length dl tokens.
func bm25Term(tf int64, termIDF, dl, avgdl float64) float64 {
	if tf == 0 {
		return 0
	}
	f := float64(tf)
	return termIDF * f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*dl/avgdl))
}

// DocScore is one ranked document.
type DocScore struct {
	Doc      string
	Score    float64
	Postings *DocPostings
}

// Rank scores the candidate documents against the query terms with BM25
// and returns every candidate that matches all terms, best first (ties
// broken by document name, so rankings are deterministic).
//
// Word-term frequencies come from the snapshot postings and their
// document frequencies are counted over the whole snapshot; phrase-term
// frequencies come from phraseTF — per candidate, one count per phrase
// term in query order, produced by the collection tier from each
// document's FM-index — and their document frequencies are counted over
// the candidate set (the only documents the substring counts exist for).
// Candidates with a zero count for any term drop out: the tier answers
// conjunctive queries.
func Rank(ctx context.Context, s Snapshot, terms []Term, cands []string, phraseTF map[string][]int64) ([]DocScore, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	avgdl := s.AvgLen()
	n := len(s.Docs)

	// Document frequencies: words over the snapshot, phrases over the
	// candidate set.
	termIDF := make([]float64, len(terms))
	polls := 0
	for ti, t := range terms {
		if t.Phrase {
			df := 0
			for _, name := range cands {
				if err := pollCtx(ctx, &polls); err != nil {
					return nil, err
				}
				counts := phraseTF[name]
				if pi := phraseIndex(terms, ti); pi < len(counts) && counts[pi] > 0 {
					df++
				}
			}
			termIDF[ti] = idf(len(cands), df)
			continue
		}
		df := 0
		for _, dp := range s.Docs {
			if err := pollCtx(ctx, &polls); err != nil {
				return nil, err
			}
			if dp.TF(t.Text) > 0 {
				df++
			}
		}
		termIDF[ti] = idf(n, df)
	}

	scored := make([]DocScore, 0, len(cands))
	for _, name := range cands {
		if err := pollCtx(ctx, &polls); err != nil {
			return nil, err
		}
		dp := s.Docs[name]
		if dp == nil {
			continue
		}
		dl := float64(dp.tokens)
		score := 0.0
		matched := true
		for ti, t := range terms {
			var tf int64
			if t.Phrase {
				counts := phraseTF[name]
				if pi := phraseIndex(terms, ti); pi < len(counts) {
					tf = counts[pi]
				}
			} else {
				tf = int64(dp.TF(t.Text))
			}
			if tf == 0 {
				matched = false
				break
			}
			score += bm25Term(tf, termIDF[ti], dl, avgdl)
		}
		if matched {
			scored = append(scored, DocScore{Doc: name, Score: score, Postings: dp})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Doc < scored[j].Doc
	})
	return scored, nil
}

// phraseIndex returns the index of term ti among the phrase terms of the
// query (the row of phraseTF counts it reads).
func phraseIndex(terms []Term, ti int) int {
	pi := 0
	for i := 0; i < ti; i++ {
		if terms[i].Phrase {
			pi++
		}
	}
	return pi
}

// Phrases returns the phrase terms of a parsed query, in order.
func Phrases(terms []Term) []Term {
	var ps []Term
	for _, t := range terms {
		if t.Phrase {
			ps = append(ps, t)
		}
	}
	return ps
}
