// Genomics: the paper's Section 6.7 scenario — a gene-annotation database
// whose DNA content is highly repetitive. Transcription-factor binding
// sites are found with PSSM queries that run as branch-and-bound
// backtracking over the BWT, plugged into XPath as a custom predicate. The
// paper swaps in a run-length index (RLCSA) here; this repository keeps the
// wavelet-tree FM-index, which is smaller and faster on this corpus.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/pssm"
)

func main() {
	data := gen.BioXML(7, 8<<20)
	fmt.Printf("corpus: %.1f MB of gene annotations + DNA\n", float64(len(data))/(1<<20))

	// A denser locate sampling step than the default 64: every PSSM match
	// is located to find its text.
	ctx := context.Background()
	idx, err := sxsi.Build(ctx, data, sxsi.Config{SampleRate: 16})
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Stats()
	fmt.Printf("text index: %.1f MB for %.1f MB of text\n",
		float64(st.TextBytes)/(1<<20), float64(len(data))/(1<<20))

	// Register the PSSM matcher as a custom XPath predicate; only the text
	// machinery changes, the automata/tree engine is untouched (the
	// modularity claim of Section 6.7).
	matrices := map[string]pssm.Matrix{"M1": pssm.M1(), "M2": pssm.M2(), "M3": pssm.M3()}
	match := func(lit string) []int32 {
		m := matrices[lit]
		occs := pssm.Search(idx.Doc.FM, &m, m.MaxScore()*0.85)
		return pssm.DistinctTexts(occs)
	}
	eng := idx.WithQueryOptions(sxsi.QueryOptions{
		CustomMatchSets: map[string]func(string) []int32{"pssm": match},
	})

	for _, src := range []string{
		`//promoter[pssm(., 'M1')]`,
		`//exon[.//sequence[pssm(., 'M1')]]`,
		`//gene[biotype = 'protein_coding']`,
		`//transcript[protein]`,
	} {
		q, err := eng.Compile(src)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		n, _ := q.CountCtx(ctx)
		fmt.Printf("%-45s %6d results in %8v  [%s]\n", src, n, time.Since(start).Round(time.Microsecond), q.Strategy())
	}

	// Plain substring search over DNA also works through the FM-index.
	n, _ := idx.Count(ctx, `//promoter[contains(., 'TATAAA')]`)
	fmt.Printf("promoters containing a TATA box: %d\n", n)
}
