package search_test

// External test package: these tests exercise the postings/snippet path
// through a real engine (core imports search, so the integration can only
// live outside package search).

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
)

func buildEngine(t *testing.T, xml string) *core.Engine {
	t.Helper()
	eng, err := core.BuildContext(context.Background(), []byte(xml), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEnginePostings(t *testing.T) {
	eng := buildEngine(t, `<doc><p>Gold rush</p><p>gold mine, Gold!</p></doc>`)
	dp := eng.Postings()
	if dp.Doc() != eng.Doc {
		t.Fatal("postings not attached to the engine's document")
	}
	if got := dp.TF("gold"); got != 3 {
		t.Fatalf("TF(gold) = %d", got)
	}
	if got := dp.TF("mine"); got != 1 {
		t.Fatalf("TF(mine) = %d", got)
	}
	if dp.Tokens() != 5 {
		t.Fatalf("Tokens = %d", dp.Tokens())
	}
	// Postings are built once and cached on the engine.
	if eng.Postings() != dp {
		t.Fatal("Postings rebuilt")
	}
}

func TestSnippet(t *testing.T) {
	eng := buildEngine(t, `<doc><p>nothing here</p><p>the famous gold rush of 1849 changed everything</p></doc>`)
	terms, err := search.ParseQuery("gold")
	if err != nil {
		t.Fatal(err)
	}
	snip, err := search.Snippet(context.Background(), eng.Postings(), terms, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snip, "gold rush") {
		t.Fatalf("snippet %q does not show the match", snip)
	}
	if len(snip) > 40+2*len("…") {
		t.Fatalf("snippet too wide: %d bytes", len(snip))
	}
}

func TestSnippetCaseFoldedFallback(t *testing.T) {
	// The FM-index matches raw bytes; the folded query token "gold" only
	// appears capitalized, so the bounded folding scan must find it.
	eng := buildEngine(t, `<doc><p>The Gold Rush</p></doc>`)
	terms, _ := search.ParseQuery("gold")
	snip, err := search.Snippet(context.Background(), eng.Postings(), terms, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snip, "Gold Rush") {
		t.Fatalf("snippet = %q", snip)
	}
}

func TestSnippetNoMatch(t *testing.T) {
	eng := buildEngine(t, `<doc><p>nothing relevant</p></doc>`)
	terms, _ := search.ParseQuery("absent")
	snip, err := search.Snippet(context.Background(), eng.Postings(), terms, 80)
	if err != nil {
		t.Fatal(err)
	}
	if snip != "" {
		t.Fatalf("snippet = %q, want empty", snip)
	}
}

// TestSnippetEffortIndependentOfFrequency pins the cost model: one located
// row, whatever the number of occurrences. Locating all 20,000 would show
// as allocations of the id set long before it showed on a clock.
func TestSnippetEffortIndependentOfFrequency(t *testing.T) {
	var xml strings.Builder
	xml.WriteString("<doc>")
	for i := 0; i < 2000; i++ {
		xml.WriteString("<p>" + strings.Repeat("gold ore ", 10) + "</p>")
	}
	xml.WriteString("</doc>")
	eng := buildEngine(t, xml.String())
	dp := eng.Postings()
	if tf := dp.TF("gold"); tf < 20000 {
		t.Fatalf("TF(gold) = %d, want >= 20000", tf)
	}
	terms, _ := search.ParseQuery("gold")
	ctx := context.Background()
	var snip string
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if snip, err = search.Snippet(ctx, dp, terms, search.SnippetWidth); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Snippet allocates %.0f objects on a 20,000-occurrence term, want <= 8", allocs)
	}
	if !strings.Contains(snip, "gold") {
		t.Errorf("snippet %q does not show the term", snip)
	}
}

// TestSnippetSameOnEveryLoadPath: which occurrence a snippet shows is a
// property of the index, so the engine that built it (serially or in
// parallel), a copying load and a mapped open all cut the same window.
func TestSnippetSameOnEveryLoadPath(t *testing.T) {
	xml := gen.Medline(5, 64<<10)
	built, err := core.BuildContext(context.Background(), xml, core.Config{BuildProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.BuildContext(context.Background(), xml, core.Config{BuildProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.sxsi")
	if _, err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := core.OpenFile(path, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("no mapped open on this platform")
	}
	ctx := context.Background()
	for _, q := range []string{"the", "of", "cell", "patients", `"of the"`} {
		terms, err := search.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := search.Snippet(ctx, built.Postings(), terms, search.SnippetWidth)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(want, terms[0].Text) {
			t.Fatalf("query %s: snippet %q does not show the term (pick a term the corpus holds in lowercase)", q, want)
		}
		for name, eng := range map[string]*core.Engine{"parallel build": parallel, "Load": loaded, "OpenFile": mapped} {
			got, err := search.Snippet(ctx, eng.Postings(), terms, search.SnippetWidth)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("query %s, %s: snippet %q, the building engine shows %q", q, name, got, want)
			}
		}
	}
}

func TestSnippetPhraseExactBytes(t *testing.T) {
	// A phrase matches raw bytes: the window sits on the capitalised
	// occurrence, not on the lowercase one an earlier text holds.
	eng := buildEngine(t, `<doc><p>a gold rush, then `+strings.Repeat("filler ", 40)+`</p><p>`+
		strings.Repeat("filler ", 40)+`the Gold Rush of 1849</p></doc>`)
	terms, _ := search.ParseQuery(`"Gold Rush"`)
	if len(terms) != 1 || !terms[0].Phrase {
		t.Fatalf("terms = %v", terms)
	}
	snip, err := search.Snippet(context.Background(), eng.Postings(), terms, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snip, "Gold Rush of 1849") {
		t.Fatalf("snippet %q is not cut at the phrase", snip)
	}
}

// TestSnippetRejectsMislocatedOccurrence gives a document the FM-index of
// another one, so the located (text, offset) does not hold the term: the
// window must come from the scan, never from the bytes at that offset.
func TestSnippetRejectsMislocatedOccurrence(t *testing.T) {
	filler := strings.Repeat("filler ", 40)
	other := buildEngine(t, `<doc><p>`+filler+`gold</p></doc>`)
	for name, xml := range map[string]string{
		"offset inside the text":   `<doc><p>Gold first, then ` + filler + filler + `</p></doc>`,
		"offset past the text end": `<doc><p>Gold first</p></doc>`,
	} {
		doc := *buildEngine(t, xml).Doc
		doc.FM = other.Doc.FM
		terms, _ := search.ParseQuery("gold")
		snip, err := search.Snippet(context.Background(), search.BuildDoc(&doc), terms, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(snip, "Gold first") {
			t.Errorf("%s: snippet %q, want the scan's window on \"Gold first\"", name, snip)
		}
	}
}
