package collection

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/search"
)

// This file is the collection's ranked full-text tier: Search answers
// "which documents talk about these terms" from the documents' postings
// first, and only then runs structural XPath — on the matching candidates,
// never the whole collection. Scoring is BM25 over the posting snapshot;
// quoted phrase terms fall back to FM-index substring counts per candidate.
// Nothing here runs before the first Search: postings are built by the
// search that first needs them (searchSnapshot), once per engine.

// ErrSearchDisabled reports a Search call on a collection built with
// Config.DisableSearch.
var ErrSearchDisabled = errors.New("collection: search tier disabled")

// DefaultTopK is the Search result size when the caller passes k <= 0.
const DefaultTopK = 10

// MaxTopK caps the result size of a single Search; a larger k is lowered
// to it.
const MaxTopK = 1000

// SearchHit is one ranked document of a Search.
type SearchHit struct {
	// Doc is the document name.
	Doc string `json:"doc"`
	// Score is the document's BM25 score over the query terms.
	Score float64 `json:"score"`
	// Snippet is a short text window around one occurrence of the first
	// query term — the first row of its suffix range in the document's
	// FM-index, not the earliest in document order ("" when extraction
	// found nothing within its budget).
	Snippet string `json:"snippet,omitempty"`
	// Nodes is the structural result count when the search carried an XPath
	// filter; 0 otherwise.
	Nodes int64 `json:"nodes,omitempty"`
}

// SearchReport is the outcome of one Search.
type SearchReport struct {
	// K is the result size the search ran with: the requested k, or
	// DefaultTopK when that was <= 0, lowered to MaxTopK when above it.
	K int `json:"k"`
	// Terms echoes the parsed query terms (phrases quoted).
	Terms []string `json:"terms"`
	// Candidates is how many documents the posting index admitted before
	// phrase counting and the structural filter.
	Candidates int `json:"candidates"`
	// Matched is how many documents matched every term (and the XPath
	// filter, when given); Hits is its top-k prefix.
	Matched int `json:"matched"`
	// Hits are the top-k documents, best first.
	Hits []SearchHit `json:"hits"`
	// Failed maps candidate documents to the error that kept the XPath
	// filter from running on them (reloaded away mid-search, evaluation
	// failure); they are excluded from Matched rather than guessed at.
	Failed map[string]string `json:"failed,omitempty"`
}

// Search ranks the collection's documents against a full-text query and
// returns the top k (DefaultTopK when k <= 0, at most MaxTopK; the report
// carries the value used), scored with BM25 over the documents' postings.
// Terms are implicitly conjunctive; "quoted phrases" match exact byte
// substrings through each candidate's FM-index. A non-empty xpath
// restricts the result to documents where the expression matches at least
// one node, evaluated in counting mode on the batch worker pool — only on
// the term candidates, which is the point of the tier.
//
// Search works on a point-in-time snapshot of the registry's postings,
// building first the ones no earlier search has needed (see
// searchSnapshot): a concurrent Reload or Add swaps documents for later
// searches but never mixes old and new postings inside this one. The
// XPath filter, by contrast, runs on the live registry (compiled queries
// are only valid against live engines), so a document swapped mid-search
// is filtered against its newest index — and one removed mid-search lands
// in Failed.
//
// Parse failures of the query return a *QueryError, like bad XPath.
func (c *Collection) Search(ctx context.Context, query, xpath string, k int) (rep *SearchReport, err error) {
	if c.cfg.DisableSearch {
		return nil, ErrSearchDisabled
	}
	c.met.searches.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("collection: internal error searching %q: %v", query, r)
		}
		c.met.searchDone(time.Since(start), err)
	}()

	terms, err := search.ParseQuery(query)
	if err != nil {
		return nil, &QueryError{Err: err}
	}
	if k <= 0 {
		k = DefaultTopK
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()

	snap, err := c.searchSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	cands, err := search.Candidates(ctx, snap, terms)
	if err != nil {
		return nil, err
	}
	rep = &SearchReport{K: k, Candidates: len(cands), Hits: []SearchHit{}}
	for _, t := range terms {
		rep.Terms = append(rep.Terms, t.String())
	}

	// Phrase counting: one FM-index substring count per (candidate, phrase)
	// pair, on the worker pool — backward search is O(pattern), so this
	// stays cheap even on large candidate sets.
	phrases := search.Phrases(terms)
	var phraseTF map[string][]int64
	if len(phrases) > 0 {
		phraseTF = make(map[string][]int64, len(cands))
		var mu sync.Mutex
		err = c.forEach(ctx, cands, func(name string) {
			dp := snap.Docs[name]
			counts := make([]int64, len(phrases))
			if d := dp.Doc(); d != nil && d.FM != nil {
				for pi, p := range phrases {
					counts[pi] = int64(d.FM.GlobalCount([]byte(p.Text)))
				}
			}
			mu.Lock()
			phraseTF[name] = counts
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
	}

	scored, err := search.Rank(ctx, snap, terms, cands, phraseTF)
	if err != nil {
		return nil, err
	}

	// Structural filter: count the XPath on every scored candidate (worker
	// pool again, each evaluation under the usual per-request accounting)
	// and keep the ones with at least one result node.
	nodes := map[string]int64{}
	if xpath != "" {
		reqs := make([]Request, len(scored))
		for i, ds := range scored {
			reqs[i] = Request{Doc: ds.Doc, Query: xpath, Mode: ModeCount}
		}
		kept := scored[:0]
		for i, res := range c.Query(ctx, reqs) {
			switch {
			case res.Err != nil:
				if isCtxErr(res.Err) {
					return nil, res.Err
				}
				if rep.Failed == nil {
					rep.Failed = map[string]string{}
				}
				rep.Failed[res.Doc] = res.Err.Error()
			case res.Count > 0:
				nodes[res.Doc] = res.Count
				kept = append(kept, scored[i])
			}
		}
		scored = kept
	}
	rep.Matched = len(scored)

	if len(scored) > k {
		scored = scored[:k]
	}
	for _, ds := range scored {
		snip, err := search.Snippet(ctx, ds.Postings, terms, search.SnippetWidth)
		if err != nil {
			return nil, err
		}
		rep.Hits = append(rep.Hits, SearchHit{Doc: ds.Doc, Score: ds.Score, Snippet: snip, Nodes: nodes[ds.Doc]})
	}
	return rep, nil
}

// searchSnapshot derives the posting snapshot of one Search from the live
// registry. An engine registered, or swapped in by Reload, since the last
// search has no postings yet; those are built here, in parallel on the
// worker pool. Engine.Postings is the single flight, so concurrent first
// searches tokenize each document once and share the result, and the
// postings carry their own document, so the snapshot stays consistent
// whatever the registry does next. When every engine already has its
// postings — every search but the first after an open — the snapshot is
// one O(docs) copy under the read lock and nothing else.
func (c *Collection) searchSnapshot(ctx context.Context) (search.Snapshot, error) {
	var unbuilt map[string]*core.Engine
	c.mu.RLock()
	snap := search.Snapshot{Docs: make(map[string]*search.DocPostings, len(c.docs))}
	for name, eng := range c.docs {
		dp := eng.PostingsIfBuilt()
		if dp == nil {
			if unbuilt == nil {
				unbuilt = map[string]*core.Engine{}
			}
			unbuilt[name] = eng
			continue
		}
		snap.Docs[name] = dp
		snap.Total += dp.Tokens()
	}
	c.mu.RUnlock()
	if len(unbuilt) == 0 {
		return snap, nil
	}
	names := make([]string, 0, len(unbuilt))
	for name := range unbuilt {
		names = append(names, name)
	}
	if err := c.forEach(ctx, names, func(name string) { unbuilt[name].Postings() }); err != nil {
		return search.Snapshot{}, err
	}
	for name, eng := range unbuilt {
		dp := eng.Postings()
		snap.Docs[name] = dp
		snap.Total += dp.Tokens()
	}
	return snap, nil
}

// isCtxErr reports whether err is the context's own failure — the whole
// search is over, as opposed to one document failing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// forEach runs fn over names on a bounded pool of Config.Workers
// goroutines; a canceled context stops feeding and returns its error (some
// names will not have been visited).
func (c *Collection) forEach(ctx context.Context, names []string, fn func(name string)) error {
	if len(names) == 0 {
		return ctx.Err()
	}
	workers := c.cfg.workers()
	if workers > len(names) {
		workers = len(names)
	}
	jobs := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				fn(name)
			}
		}()
	}
	canceled := false
feed:
	for _, name := range names {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		select {
		case jobs <- name:
		case <-ctx.Done():
			canceled = true
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if canceled {
		return ctx.Err()
	}
	return nil
}

// SaveSearchIndex writes the collection's posting index to path (the
// aligned container OpenIndexFile maps back in), building the postings no
// search has needed yet; it fails with ErrSearchDisabled when the tier is
// off.
func (c *Collection) SaveSearchIndex(path string) (int64, error) {
	if c.cfg.DisableSearch {
		return 0, ErrSearchDisabled
	}
	return c.SearchIndex().SaveFile(path)
}

// SearchIndex returns the posting index of the documents registered now
// (nil when the tier is disabled), building the postings no search has
// needed yet. It is a copy for tests and tools: later Add, Remove and
// Reload calls do not reach it.
func (c *Collection) SearchIndex() *search.Index {
	if c.cfg.DisableSearch {
		return nil
	}
	// The only error searchSnapshot returns is its context's.
	snap, _ := c.searchSnapshot(context.Background())
	ix := search.NewIndex()
	for name, dp := range snap.Docs {
		ix.Add(name, dp)
	}
	return ix
}
