// Quickstart: index an XML document in memory, run counting, materializing
// and serializing queries, and save/reload the index.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

const doc = `<parts>
<part name="pen"><color>blue</color><stock>40</stock>Soon discontinued.</part>
<part name="rubber"><stock>30</stock></part>
<part name="pencil"><color>green</color><stock>12</stock></part>
</parts>`

func main() {
	// Build the self-index: after this, the original document could be
	// discarded — every query and serialization below runs on the index.
	ctx := context.Background()
	idx, err := sxsi.Build(ctx, []byte(doc), sxsi.Config{})
	if err != nil {
		log.Fatal(err)
	}
	st := idx.Stats()
	fmt.Printf("indexed: %d nodes, %d texts, %d distinct labels\n", st.Nodes, st.Texts, st.Tags)

	// Counting mode (Section 5.5.3 of the paper): no results materialized.
	n, err := idx.Count(ctx, "//part[color]/stock")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parts with a color have %d stock entries\n", n)

	// Text predicates run on the FM-index.
	n, _ = idx.Count(ctx, "//part[contains(., 'discontinued')]")
	fmt.Printf("%d part(s) mention 'discontinued'\n", n)

	// Attribute tests and serialization.
	fmt.Println("serialize //part[@name = 'pen']/color:")
	if _, err := idx.Serialize(ctx, "//part[@name = 'pen']/color", os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Persist and reload: loading skips suffix sorting and is much faster
	// than building.
	var buf bytes.Buffer
	if _, err := idx.Save(&buf); err != nil {
		log.Fatal(err)
	}
	idx2, err := sxsi.Load(&buf, sxsi.Config{})
	if err != nil {
		log.Fatal(err)
	}
	n, _ = idx2.Count(ctx, "//stock")
	fmt.Printf("after reload: %d stock elements\n", n)
}
