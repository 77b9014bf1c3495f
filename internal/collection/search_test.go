package collection

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
)

// searchDocs is a small corpus with known term statistics.
var searchDocs = map[string]string{
	"mining":  `<doc><p>gold rush</p><p>the gold mine produced gold</p></doc>`,
	"finance": `<doc><p>gold and silver markets</p><p>crude oil futures</p></doc>`,
	"cooking": `<doc><p>olive oil and salt</p><p>no metals here</p></doc>`,
}

func searchCollection(t *testing.T) *Collection {
	t.Helper()
	c := New(Config{})
	for name, xml := range searchDocs {
		c.Add(name, buildEngine(t, xml))
	}
	return c
}

func TestSearchRanksAndSnips(t *testing.T) {
	c := searchCollection(t)
	rep, err := c.Search(context.Background(), "gold", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 2 || rep.Matched != 2 || len(rep.Hits) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// "mining" has tf=3, "finance" tf=1: BM25 puts mining first.
	if rep.Hits[0].Doc != "mining" || rep.Hits[1].Doc != "finance" {
		t.Fatalf("order = %s, %s", rep.Hits[0].Doc, rep.Hits[1].Doc)
	}
	if rep.Hits[0].Score <= rep.Hits[1].Score {
		t.Fatalf("scores = %v, %v", rep.Hits[0].Score, rep.Hits[1].Score)
	}
	if rep.Hits[0].Snippet == "" {
		t.Fatal("no snippet on the top hit")
	}
	if got := c.Stats().Searches; got != 1 {
		t.Fatalf("Stats.Searches = %d", got)
	}
}

func TestSearchTopKTruncates(t *testing.T) {
	c := searchCollection(t)
	rep, err := c.Search(context.Background(), "gold", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 2 || len(rep.Hits) != 1 || rep.Hits[0].Doc != "mining" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSearchPhrase(t *testing.T) {
	c := searchCollection(t)
	// Both oil documents contain "oil", but only finance has "crude oil".
	rep, err := c.Search(context.Background(), `"crude oil"`, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 1 || rep.Hits[0].Doc != "finance" {
		t.Fatalf("report = %+v", rep)
	}
	// Phrase and word terms are conjunctive: "olive oil" + gold matches
	// nothing (cooking has the phrase but no gold).
	rep, err = c.Search(context.Background(), `gold "olive oil"`, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 0 || len(rep.Hits) != 0 {
		t.Fatalf("conjunction report = %+v", rep)
	}
}

func TestSearchXPathFilter(t *testing.T) {
	c := searchCollection(t)
	// Every gold document matches //p, but only mining has a <p> whose text
	// contains "mine".
	rep, err := c.Search(context.Background(), "gold", `//p[contains(., "mine")]`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 2 || rep.Matched != 1 || rep.Hits[0].Doc != "mining" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Hits[0].Nodes != 1 {
		t.Fatalf("Nodes = %d", rep.Hits[0].Nodes)
	}
	// A bad XPath surfaces per-doc (the search query itself was fine), so
	// matched drops to zero with every candidate in Failed.
	rep, err = c.Search(context.Background(), "gold", `//p[`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 0 || len(rep.Failed) != 2 {
		t.Fatalf("bad-xpath report = %+v", rep)
	}
}

func TestSearchErrors(t *testing.T) {
	c := searchCollection(t)
	var qerr *QueryError
	if _, err := c.Search(context.Background(), `"unterminated`, "", 10); !errors.As(err, &qerr) {
		t.Fatalf("bad query error = %v", err)
	}
	if _, err := c.Search(context.Background(), "", "", 10); !errors.As(err, &qerr) {
		t.Fatalf("empty query error = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Search(ctx, "gold", "", 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search error = %v", err)
	}
	if got := c.Stats().SearchErrs; got != 2 {
		t.Fatalf("SearchErrs = %d (cancellations must not count)", got)
	}

	d := New(Config{DisableSearch: true})
	if _, err := d.Search(context.Background(), "gold", "", 10); !errors.Is(err, ErrSearchDisabled) {
		t.Fatalf("disabled search error = %v", err)
	}
	if d.SearchIndex() != nil {
		t.Fatal("disabled collection still built an index")
	}
}

func TestSearchIndexFollowsRegistry(t *testing.T) {
	c := searchCollection(t)
	if got := len(c.SearchIndex().Snapshot().Docs); got != 3 {
		t.Fatalf("index Len = %d", got)
	}
	c.Remove("cooking")
	if got := len(c.SearchIndex().Snapshot().Docs); got != 2 {
		t.Fatalf("index Len after Remove = %d", got)
	}
	// Replacing a document re-points its postings: the old terms vanish.
	c.Add("mining", buildEngine(t, `<doc><p>now about beekeeping</p></doc>`))
	rep, err := c.Search(context.Background(), "gold", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 1 || rep.Hits[0].Doc != "finance" {
		t.Fatalf("report after replace = %+v", rep)
	}
	rep, err = c.Search(context.Background(), "beekeeping", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 1 || rep.Hits[0].Doc != "mining" {
		t.Fatalf("report for new terms = %+v", rep)
	}
}

// TestPostingsBuiltOnFirstSearch pins when postings come to exist: never
// on LoadDir, Add or Reload, for every registered document on the first
// Search after them, and again only for the engines a Reload swapped in.
func TestPostingsBuiltOnFirstSearch(t *testing.T) {
	dir := t.TempDir()
	for name, xml := range searchDocs {
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), []byte(xml), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	c := New(Config{})
	if _, err := c.LoadDir(ctx, dir); err != nil {
		t.Fatal(err)
	}
	c.Add("extra", buildEngine(t, `<doc><p>gold leaf</p></doc>`))
	built := func(when string, want int) {
		t.Helper()
		st := c.Stats()
		if st.PostingsDocs != want || (st.PostingsBytes > 0) != (want > 0) {
			t.Fatalf("%s: PostingsDocs = %d (%d bytes), want %d", when, st.PostingsDocs, st.PostingsBytes, want)
		}
	}
	search := func(want int) {
		t.Helper()
		rep, err := c.Search(ctx, "gold", "", 10)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Matched != want {
			t.Fatalf("gold matched %d documents, want %d: %+v", rep.Matched, want, rep)
		}
	}
	built("after LoadDir and Add", 0)
	search(3)
	built("after the first Search", 4)

	// Reload swaps one changed file: its new engine has no postings until
	// the next Search, the other three keep theirs.
	path := filepath.Join(dir, "cooking.xml")
	if err := os.WriteFile(path, []byte(`<doc><p>gold leaf on chocolate</p></doc>`), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if rep := c.Reload(ctx); len(rep.Reloaded) != 1 || rep.Unchanged != 2 {
		t.Fatalf("reload report: %+v", rep)
	}
	built("after Reload", 3)
	search(4)
	built("after the Search that follows", 4)

	// A removed document leaves the next snapshot with its engine.
	c.Remove("extra")
	built("after Remove", 3)
	search(3)

	// A disabled tier never builds any.
	d := New(Config{DisableSearch: true})
	d.Add("mining", buildEngine(t, searchDocs["mining"]))
	if _, err := d.Search(ctx, "gold", "", 10); !errors.Is(err, ErrSearchDisabled) {
		t.Fatalf("disabled search error = %v", err)
	}
	if st := d.Stats(); st.PostingsDocs != 0 {
		t.Fatalf("disabled collection built %d postings", st.PostingsDocs)
	}
}

// TestFirstSearchRace sends the first Search of a fresh collection from 8
// goroutines at once (run with -race): each engine's postings are built
// once and shared, and every report equals the one a collection whose
// postings were built beforehand gives.
func TestFirstSearchRace(t *testing.T) {
	const docs, searchers = 12, 8
	engines := make(map[string]*core.Engine, docs)
	warm := New(Config{Workers: 4})
	for i := 0; i < docs; i++ {
		name := fmt.Sprintf("d%02d", i)
		engines[name] = buildEngine(t, string(gen.Medline(uint64(i+1), 8192)))
		w := buildEngine(t, string(gen.Medline(uint64(i+1), 8192)))
		w.Postings()
		warm.Add(name, w)
	}
	ctx := context.Background()
	queries := []string{"the", "of cell", `"of the"`}
	want := make([]*SearchReport, len(queries))
	for i, q := range queries {
		rep, err := warm.Search(ctx, q, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Matched == 0 {
			t.Fatalf("query %q matches nothing: the comparison would be vacuous", q)
		}
		want[i] = rep
	}

	c := New(Config{Workers: 4})
	for name, eng := range engines {
		c.Add(name, eng)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	seen := make([]map[string]*search.DocPostings, searchers)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			q := g % len(queries)
			rep, err := c.Search(ctx, queries[q], "", 5)
			if err != nil {
				t.Errorf("searcher %d: %v", g, err)
				return
			}
			if !reflect.DeepEqual(rep, want[q]) {
				t.Errorf("searcher %d, query %q:\n got %+v\nwant %+v", g, queries[q], rep, want[q])
			}
			seen[g] = make(map[string]*search.DocPostings, docs)
			for name, eng := range engines {
				seen[g][name] = eng.PostingsIfBuilt()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range seen {
		for name, eng := range engines {
			if dp := seen[g][name]; dp == nil || dp != eng.Postings() {
				t.Errorf("searcher %d saw postings %p of %s after its search, the engine holds %p", g, dp, name, eng.Postings())
			}
		}
	}
}

// TestSearchDuringReload hammers Search while the underlying files are
// rewritten and hot-reloaded: run with -race, it pins the reload
// consistency contract — a search that snapshotted the posting index
// before a swap keeps scoring (and snippeting) the old postings against
// the old document, never a mix.
func TestSearchDuringReload(t *testing.T) {
	dir := t.TempDir()
	gen := func(version int) string {
		if version%2 == 0 {
			return `<doc><p>gold rush era</p><p>gold everywhere</p></doc>`
		}
		return `<doc><p>silver age era</p><p>silver everywhere</p></doc>`
	}
	path := filepath.Join(dir, "swap.xml")
	if err := os.WriteFile(path, []byte(gen(0)), 0o666); err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	if err := c.Open("swap", path); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; ctx.Err() == nil; v++ {
			if err := os.WriteFile(path, []byte(gen(v)), 0o666); err != nil {
				return
			}
			// Backdate the mtime so every pass sees a "changed" file even on
			// filesystems with coarse timestamps.
			old := time.Now().Add(-time.Duration(v) * time.Second)
			os.Chtimes(path, old, old)
			c.Reload(ctx)
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, q := range []string{"gold", "silver", `"gold rush"`, "era"} {
			rep, err := c.Search(ctx, q, "", 5)
			if err != nil {
				t.Errorf("Search(%q): %v", q, err)
				break
			}
			// Whichever version was live, "era" matches it; and a hit must
			// carry a self-consistent snippet (terms from one version never
			// pair with the other version's document).
			if q == "era" && rep.Matched != 1 {
				t.Errorf("Search(era) matched %d", rep.Matched)
			}
		}
	}
	cancel()
	wg.Wait()
}
