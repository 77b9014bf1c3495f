package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/dom"
)

// The oracle computes the answer a correct server must give to every
// distinct operation, from code that shares nothing with the engine's
// evaluators: XPath answers come from the pointer-tree walker of
// internal/dom, and ranked-search answers from the brute-force BM25 below,
// which has its own tokenizer and counts phrases by scanning the text.

// oracle holds the independent view of one corpus.
type oracle struct {
	names []string // document names, sorted
	trees map[string]*dom.Tree
	// Search statistics per document: folded token → frequency, and the
	// document length in tokens.
	tf     map[string]map[string]int64
	tokens map[string]int64
}

func newOracle(xml map[string][]byte, withSearch bool) (*oracle, error) {
	o := &oracle{trees: map[string]*dom.Tree{}, tf: map[string]map[string]int64{}, tokens: map[string]int64{}}
	for name := range xml {
		o.names = append(o.names, name)
	}
	sort.Strings(o.names)
	var mu sync.Mutex
	err := forEachParallel(len(o.names), func(i int) error {
		name := o.names[i]
		t, err := dom.Parse(xml[name])
		if err != nil {
			return fmt.Errorf("oracle: parse %s: %w", name, err)
		}
		var tf map[string]int64
		var n int64
		if withSearch {
			tf = map[string]int64{}
			eachText(t.Root, func(text []byte) {
				scanTokens(text, func(tok string) {
					tf[tok]++
					n++
				})
			})
		}
		mu.Lock()
		o.trees[name], o.tf[name], o.tokens[name] = t, tf, n
		mu.Unlock()
		return nil
	})
	return o, err
}

// forEachParallel runs fn(0..n-1) on one goroutine per processor and
// returns the first error.
func forEachParallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// answer fills in op.want for every distinct operation.
func (o *oracle) answer(ops []*opSpec) error {
	return forEachParallel(len(ops), func(i int) error {
		op := ops[i]
		if err := o.answerOne(op); err != nil {
			return fmt.Errorf("oracle: %s %s: %w", op.class, op.target, err)
		}
		return nil
	})
}

func (o *oracle) eval(doc, query string) ([]*dom.Node, error) {
	t, ok := o.trees[doc]
	if !ok {
		return nil, fmt.Errorf("no document %q", doc)
	}
	return t.Eval(query)
}

func (o *oracle) answerOne(op *opSpec) error {
	w := &op.want
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00", op.kind, op.target, op.body)
	switch op.kind {
	case kindCount, kindExists:
		ns, err := o.eval(op.doc, op.query)
		if err != nil {
			return err
		}
		w.count, w.exists, w.queries = int64(len(ns)), len(ns) > 0, 1
		if op.kind == kindCount {
			fmt.Fprintf(h, "%d", w.count)
		} else {
			fmt.Fprintf(h, "%v", w.exists)
		}
	case kindStream:
		ns, err := o.eval(op.doc, op.query)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		for _, n := range ns {
			n.Serialize(&buf)
			buf.WriteByte('\n')
		}
		w.count, w.body, w.queries = int64(len(ns)), buf.Bytes(), 1
		h.Write(w.body)
	case kindBatch:
		for _, it := range op.batch {
			ns, err := o.eval(it.doc, it.query)
			if err != nil {
				return err
			}
			pos := make([]int, len(ns))
			for i, n := range ns {
				pos[i] = parenPosition(n)
			}
			w.nodes = append(w.nodes, pos)
			fmt.Fprintf(h, "%v;", pos)
		}
		w.queries = int64(len(op.batch))
	case kindCountAll:
		w.counts = map[string]int64{}
		for _, name := range o.names {
			ns, err := o.eval(name, op.query)
			if err != nil {
				return err
			}
			w.counts[name] = int64(len(ns))
			fmt.Fprintf(h, "%s=%d;", name, len(ns))
		}
		w.queries = int64(len(o.names))
	case kindSearch:
		s, filtered, err := o.search(op.terms, op.query)
		if err != nil {
			return err
		}
		w.search, w.queries = s, filtered
		fmt.Fprintf(h, "%d/%d", s.candidates, s.matched)
		for _, hit := range s.hits {
			fmt.Fprintf(h, ";%s=%.6f/%d", hit.doc, hit.score, hit.nodes)
		}
	}
	h.Sum(w.digest[:0])
	return nil
}

// parenPosition is the position of n's opening parenthesis in the balanced
// parentheses sequence of its document: the p nodes before it in preorder
// have each opened, and all of those but n's d ancestors have closed again.
func parenPosition(n *dom.Node) int {
	depth := 0
	for a := n.Parent; a != nil; a = a.Parent {
		depth++
	}
	return 2*n.Order - depth
}

// eachText calls fn with every text the engine indexes: text leaves and
// attribute values.
func eachText(n *dom.Node, fn func([]byte)) {
	if n.Tag == "#" || n.Tag == "%" {
		fn(n.Text)
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		eachText(c, fn)
	}
}

// maxTokenBytes is the documented token cap of the search tier.
const maxTokenBytes = 64

func wordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 0x80
}

// scanTokens calls fn with every token of text: maximal runs of letters,
// digits and non-ASCII bytes, ASCII-lowercased and cut at maxTokenBytes.
func scanTokens(text []byte, fn func(string)) {
	var tok []byte
	flush := func() {
		if len(tok) > 0 {
			if len(tok) > maxTokenBytes {
				tok = tok[:maxTokenBytes]
			}
			fn(string(tok))
			tok = tok[:0]
		}
	}
	for _, c := range text {
		if !wordByte(c) {
			flush()
			continue
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		tok = append(tok, c)
	}
	flush()
}

// countOverlapping counts the occurrences of pat in text, overlapping ones
// included.
func countOverlapping(text, pat []byte) int64 {
	var n int64
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			n++
		}
	}
	return n
}

// BM25 as the search tier documents it.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
	topK   = 10
)

func bm25IDF(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// search ranks the corpus against the terms by brute force and applies the
// optional XPath filter. filtered is the number of documents the filter had
// to be evaluated on (every document that matched all terms).
func (o *oracle) search(terms []term, xpath string) (*searchWant, int64, error) {
	n := len(o.names)
	var total int64
	for _, name := range o.names {
		total += o.tokens[name]
	}
	avgdl := 1.0
	if n > 0 && total > 0 {
		avgdl = float64(total) / float64(n)
	}

	// Candidates: documents holding every word term.
	var cands []string
	for _, name := range o.names {
		ok := true
		for _, t := range terms {
			if !t.phrase && o.tf[name][t.text] == 0 {
				ok = false
				break
			}
		}
		if ok {
			cands = append(cands, name)
		}
	}

	// Term frequencies per candidate, and document frequencies: words over
	// the whole corpus, phrases over the candidates (the only documents a
	// phrase is counted on).
	freq := make(map[string][]int64, len(cands))
	for _, name := range cands {
		freq[name] = make([]int64, len(terms))
	}
	idf := make([]float64, len(terms))
	for ti, t := range terms {
		df := 0
		if t.phrase {
			for _, name := range cands {
				var c int64
				eachText(o.trees[name].Root, func(text []byte) { c += countOverlapping(text, []byte(t.text)) })
				freq[name][ti] = c
				if c > 0 {
					df++
				}
			}
			idf[ti] = bm25IDF(len(cands), df)
			continue
		}
		for _, name := range o.names {
			if o.tf[name][t.text] > 0 {
				df++
			}
		}
		for _, name := range cands {
			freq[name][ti] = o.tf[name][t.text]
		}
		idf[ti] = bm25IDF(n, df)
	}

	var hits []searchHit
	for _, name := range cands {
		dl := float64(o.tokens[name])
		score, all := 0.0, true
		for ti := range terms {
			f := float64(freq[name][ti])
			if f == 0 {
				all = false
				break
			}
			score += idf[ti] * f * (bm25K1 + 1) / (f + bm25K1*(1-bm25B+bm25B*dl/avgdl))
		}
		if all {
			hits = append(hits, searchHit{doc: name, score: score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].doc < hits[j].doc
	})

	var filtered int64
	if xpath != "" {
		filtered = int64(len(hits))
		kept := hits[:0]
		for _, h := range hits {
			ns, err := o.eval(h.doc, xpath)
			if err != nil {
				return nil, 0, err
			}
			if len(ns) > 0 {
				h.nodes = int64(len(ns))
				kept = append(kept, h)
			}
		}
		hits = kept
	}
	s := &searchWant{candidates: len(cands), matched: len(hits)}
	if len(hits) > topK {
		hits = hits[:topK]
	}
	s.hits = hits
	return s, filtered, nil
}
