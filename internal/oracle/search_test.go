package oracle

// The differential ranking oracle: the posting-tier top-k (collection.Search)
// must agree exactly with a brute-force scorer that re-derives every number
// from first principles — term frequencies by re-tokenizing each document's
// text store, phrase frequencies by naive overlapping substring scans (the
// tier uses FM-index backward search), document frequencies and BM25 by the
// formula — across the five corpora. Zero mismatches allowed.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/search"
)

// bruteDoc is one document's independently derived text statistics.
type bruteDoc struct {
	name   string
	tf     map[string]int64
	tokens int64
	texts  [][]byte
}

func bruteStats(name string, eng *core.Engine) *bruteDoc {
	b := &bruteDoc{name: name, tf: map[string]int64{}}
	for id := 0; id < eng.Doc.NumTexts(); id++ {
		text := eng.Doc.Text(id)
		b.texts = append(b.texts, text)
		for _, tok := range search.Tokenize(text) {
			b.tf[tok]++
			b.tokens++
		}
	}
	return b
}

// phraseCount counts overlapping occurrences of pat in every text — the
// naive counterpart of the FM-index GlobalCount the tier uses.
func (b *bruteDoc) phraseCount(pat string) int64 {
	var n int64
	for _, text := range b.texts {
		for i := 0; i+len(pat) <= len(text); i++ {
			if string(text[i:i+len(pat)]) == pat {
				n++
			}
		}
	}
	return n
}

// bruteRank mirrors the tier's documented semantics with independent code:
// candidates are the documents containing every word term; word df counts
// over all documents, phrase df over the candidates; BM25 with k1=1.2,
// b=0.75 and idf = ln(1+(n-df+0.5)/(df+0.5)); conjunctive matching; ties
// broken by name.
func bruteRank(docs []*bruteDoc, terms []search.Term) []collection.SearchHit {
	var cands []*bruteDoc
	for _, d := range docs {
		ok := true
		for _, t := range terms {
			if !t.Phrase && d.tf[t.Text] == 0 {
				ok = false
				break
			}
		}
		if ok {
			cands = append(cands, d)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })

	var total int64
	for _, d := range docs {
		total += d.tokens
	}
	avgdl := 1.0
	if len(docs) > 0 && total > 0 {
		avgdl = float64(total) / float64(len(docs))
	}
	idf := func(n, df int) float64 {
		return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
	}
	termIDF := make([]float64, len(terms))
	phraseTF := map[*bruteDoc]map[string]int64{}
	for ti, t := range terms {
		df := 0
		if t.Phrase {
			for _, d := range cands {
				if phraseTF[d] == nil {
					phraseTF[d] = map[string]int64{}
				}
				if _, ok := phraseTF[d][t.Text]; !ok {
					phraseTF[d][t.Text] = d.phraseCount(t.Text)
				}
				if phraseTF[d][t.Text] > 0 {
					df++
				}
			}
			termIDF[ti] = idf(len(cands), df)
			continue
		}
		for _, d := range docs {
			if d.tf[t.Text] > 0 {
				df++
			}
		}
		termIDF[ti] = idf(len(docs), df)
	}

	var hits []collection.SearchHit
	for _, d := range cands {
		dl := float64(d.tokens)
		score, matched := 0.0, true
		for ti, t := range terms {
			tf := d.tf[t.Text]
			if t.Phrase {
				tf = phraseTF[d][t.Text]
			}
			if tf == 0 {
				matched = false
				break
			}
			f := float64(tf)
			score += termIDF[ti] * f * (1.2 + 1) / (f + 1.2*(1-0.75+0.75*dl/avgdl))
		}
		if matched {
			hits = append(hits, collection.SearchHit{Doc: d.name, Score: score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	return hits
}

// randomSearchQuery builds a term query from the corpus vocabulary: 1-3
// word terms, sometimes with a quoted phrase sampled from real text (so
// phrase hits actually occur).
func randomSearchQuery(r *gen.RNG, v Vocab, docs []*bruteDoc) string {
	var parts []string
	for n := 1 + int(r.Next()%3); n > 0; n-- {
		parts = append(parts, v.Words[r.Next()%uint64(len(v.Words))])
	}
	if r.Next()%3 == 0 {
		d := docs[r.Next()%uint64(len(docs))]
		if text := d.texts[r.Next()%uint64(len(d.texts))]; len(text) > 0 {
			fields := strings.Fields(string(text))
			if len(fields) >= 2 {
				at := int(r.Next() % uint64(len(fields)-1))
				parts = append(parts, `"`+fields[at]+" "+fields[at+1]+`"`)
			}
		}
	}
	return strings.Join(parts, " ")
}

// TestDifferentialRanking pins the posting tier against the brute-force
// scorer: ≥300 random term queries across the five corpora (each split
// into 6 documents), exact agreement on the matched set, the ranking order
// and the scores. Zero mismatches allowed.
func TestDifferentialRanking(t *testing.T) {
	const queriesPerCorpus = 60
	const docsPerCorpus = 6
	pairs, mismatches := 0, 0
	for _, corp := range corpora {
		c := collection.New(collection.Config{})
		var docs []*bruteDoc
		var vocabData []byte
		for seed := uint64(1); seed <= docsPerCorpus; seed++ {
			data := corp.data(seed)
			if seed == 1 {
				vocabData = data
			}
			eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
			if err != nil {
				t.Fatalf("%s/%d: build: %v", corp.name, seed, err)
			}
			name := fmt.Sprintf("%s-%d", corp.name, seed)
			c.Add(name, eng)
			docs = append(docs, bruteStats(name, eng))
		}
		tree, err := dom.Parse(vocabData)
		if err != nil {
			t.Fatalf("%s: dom: %v", corp.name, err)
		}
		v := ExtractVocab(tree, 200)
		if len(v.Words) == 0 {
			t.Fatalf("%s: no vocabulary words", corp.name)
		}
		r := gen.NewRNG(12345)
		for i := 0; i < queriesPerCorpus; i++ {
			q := randomSearchQuery(r, v, docs)
			terms, err := search.ParseQuery(q)
			if err != nil {
				t.Fatalf("%s: generated query %q does not parse: %v", corp.name, q, err)
			}
			want := bruteRank(docs, terms)
			rep, err := c.Search(context.Background(), q, "", len(docs))
			if err != nil {
				t.Fatalf("%s: Search(%q): %v", corp.name, q, err)
			}
			pairs++
			if !sameRanking(t, corp.name, q, rep, want) {
				mismatches++
				if mismatches > 5 {
					t.Fatal("too many ranking mismatches, stopping")
				}
			}
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d ranking pairs, want >= 300", pairs)
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d ranking pairs mismatched", mismatches, pairs)
	}
	t.Logf("%d ranking pairs, zero mismatches", pairs)
}

func sameRanking(t *testing.T, name, q string, rep *collection.SearchReport, want []collection.SearchHit) bool {
	t.Helper()
	if rep.Matched != len(want) || len(rep.Hits) != len(want) {
		t.Errorf("%s: %q: tier matched %d/%d hits, oracle %d", name, q, rep.Matched, len(rep.Hits), len(want))
		return false
	}
	for i, h := range rep.Hits {
		w := want[i]
		if h.Doc != w.Doc {
			t.Errorf("%s: %q: rank %d: tier %s, oracle %s", name, q, i, h.Doc, w.Doc)
			return false
		}
		if math.Abs(h.Score-w.Score) > 1e-9*math.Max(1, math.Abs(w.Score)) {
			t.Errorf("%s: %q: rank %d (%s): tier score %v, oracle %v", name, q, i, h.Doc, h.Score, w.Score)
			return false
		}
	}
	return true
}
