// Wikisearch: the paper's Section 6.6.2 scenario — natural-language search
// over wiki pages, two ways. First through the pluggable word-based text
// index: phrase queries match at word boundaries via a word-level suffix
// array, plugged into XPath as the custom predicate wcontains. Then
// through the collection search tier: several wiki documents registered in
// a collection, queried with BM25-ranked terms plus a structural XPath
// filter — the production path behind `sxsi search` and GET /search.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/collection"
	"repro/internal/gen"
	"repro/internal/wordindex"
)

func main() {
	data := gen.Wiki(99, 16<<20)
	fmt.Printf("corpus: %.1f MB of wiki pages\n", float64(len(data))/(1<<20))

	ctx := context.Background()
	idx, err := sxsi.Build(ctx, data, sxsi.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Build the word index over the same text collection and register it.
	start := time.Now()
	widx, err := wordindex.New(idx.Doc.Plain.All())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("word index: %d tokens, %d distinct words, built in %v\n",
		widx.NumWords(), widx.VocabSize(), time.Since(start).Round(time.Millisecond))

	eng := idx.WithQueryOptions(sxsi.QueryOptions{
		CustomMatchSets: map[string]func(string) []int32{
			"wcontains": widx.ContainsPhrase,
		},
	})

	for _, src := range []string{
		`//text[wcontains(., "dark horse")]`,
		`//page/title[wcontains(., "crude oil")]`,
		`//page[.//text[wcontains(., "played on a board")]]/title`,
	} {
		q, err := eng.Compile(src)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		n, _ := q.CountCtx(ctx)
		fmt.Printf("%-55s %5d results in %8v  [%s]\n", src, n, time.Since(start).Round(time.Microsecond), q.Strategy())
	}

	// Word-boundary semantics differ from substring semantics: compare.
	a, _ := eng.Count(ctx, `//text[wcontains(., "horse")]`)
	b, _ := idx.Count(ctx, `//text[contains(., "horse")]`)
	fmt.Printf("word match 'horse': %d pages; substring match: %d pages\n", a, b)

	// Part two: the collection search tier. Register several wiki dumps as
	// separate documents; the collection tokenizes each into the posting
	// index as it registers, and Search answers "which documents talk about
	// these terms" with BM25 ranking before any structural work runs.
	fmt.Println("\ncollection search tier:")
	c := collection.New(collection.Config{})
	start = time.Now()
	for seed := uint64(1); seed <= 6; seed++ {
		doc, err := sxsi.Build(ctx, gen.Wiki(seed, 2<<20), sxsi.Config{})
		if err != nil {
			log.Fatal(err)
		}
		c.Add(fmt.Sprintf("wiki-%02d", seed), doc.Engine)
	}
	fmt.Printf("indexed %d documents in %v\n", c.Len(), time.Since(start).Round(time.Millisecond))

	for _, q := range []string{
		`dark horse`,
		`"crude oil" board`,
	} {
		start := time.Now()
		rep, err := c.Search(ctx, q, `//page/title`, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search %-22q %d candidates, %d matched in %v\n",
			q, rep.Candidates, rep.Matched, time.Since(start).Round(time.Microsecond))
		for i, h := range rep.Hits {
			fmt.Printf("  %d. %s  score=%.3f  titles=%d  %s\n", i+1, h.Doc, h.Score, h.Nodes, h.Snippet)
		}
	}
}
