// Bibsearch: the paper's text-oriented scenario (Section 6.6) — index a
// Medline-like bibliographic collection and run selective text queries,
// showing the planner's strategy choices (bottom-up from FM-index matches
// for selective predicates, naive string-value semantics for mixed
// content).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/gen"
)

func main() {
	// Generate a ~4MB synthetic Medline corpus (deterministic).
	data := gen.Medline(2024, 4<<20)
	fmt.Printf("corpus: %.1f MB of bibliographic XML\n", float64(len(data))/(1<<20))

	ctx := context.Background()
	idx, err := sxsi.Build(ctx, data, sxsi.Config{})
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// Selective author-prefix search: runs bottom-up from the FM-index.
		`//MedlineCitation/Article/AuthorList/Author[starts-with(LastName, "Bar")]`,
		// Abstract keyword search.
		`//Article[.//AbstractText[contains(., "epididymis")]]`,
		// Boolean combination: evaluated top-down, still FM-backed.
		`//Article[.//AbstractText[contains(., "foot") or contains(., "feet")]]`,
		// Mixed-content target: naive string-value semantics.
		`//MedlineCitation[contains(., "blood cell")]`,
		// Lexicographic publication-type filter.
		`//*[.//PublicationType[ends-with(., "Article")]]`,
	}
	for _, src := range queries {
		q, err := idx.Compile(src)
		if err != nil {
			log.Fatalf("%s: %v", src, err)
		}
		n, _ := q.CountCtx(ctx)
		fmt.Printf("%-80s  %6d results  [%s]\n", src, n, q.Strategy())
	}

	// Show one hit with its content.
	q, _ := idx.Compile(`//Author[starts-with(LastName, "Bar")]/LastName`)
	nodes, _ := q.NodesCtx(ctx)
	if len(nodes) > 0 {
		fmt.Printf("first matching author: %s\n", idx.Doc.TextValue(nodes[0]))
	}
}
