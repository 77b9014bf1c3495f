package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// TestConcurrentEngine hammers one shared Engine from many goroutines with
// mixed Count/Nodes/Serialize/Compile traffic and cross-checks every answer
// against serially computed expectations. Run under -race this is the
// engine-level concurrency contract test.
func TestConcurrentEngine(t *testing.T) {
	eng, err := BuildContext(context.Background(), gen.XMark(11, 64<<10), Config{SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//listitem//keyword",
		"//item[.//keyword]/name",
		"//person//emailaddress",
		"//keyword[contains(., 'gold')]",
		"//item[@id]/description",
		"//open_auction[bidder]//increase",
		"//closed_auction[not(annotation)]",
		"//europe/item/name[starts-with(., 'a')]",
		// Backward axes: nav post-steps and nav predicates must also be
		// safe for concurrent evaluation of one shared Query.
		"//keyword/ancestor::listitem",
		"//name[parent::item]/..",
		"//keyword[contains(., 'gold')]/preceding::emph",
	}
	type expect struct {
		count int64
		nodes []int
		xml   []byte
	}
	want := make([]expect, len(queries))
	for i, q := range queries {
		n, err := eng.Count(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		nodes, err := eng.Nodes(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.Serialize(context.Background(), q, &buf); err != nil {
			t.Fatal(err)
		}
		want[i] = expect{count: n, nodes: nodes, xml: buf.Bytes()}
	}

	const goroutines = 16
	const iters = 30
	// Shared compiled queries: one per query string, used by all goroutines
	// at once (the collection cache does the same).
	shared := make([]*xpath.Query, len(queries))
	for i, q := range queries {
		if shared[i], err = eng.Compile(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(queries)
				q := queries[i]
				switch it % 4 {
				case 0:
					if n, err := eng.Count(context.Background(), q); err != nil || n != want[i].count {
						errc <- fmt.Errorf("g%d Count(%s) = %d, %v; want %d", g, q, n, err, want[i].count)
						return
					}
				case 1:
					nodes, err := eng.Nodes(context.Background(), q)
					if err != nil || len(nodes) != len(want[i].nodes) {
						errc <- fmt.Errorf("g%d Nodes(%s) len %d, %v; want %d", g, q, len(nodes), err, len(want[i].nodes))
						return
					}
				case 2:
					var buf bytes.Buffer
					if _, err := eng.Serialize(context.Background(), q, &buf); err != nil || !bytes.Equal(buf.Bytes(), want[i].xml) {
						errc <- fmt.Errorf("g%d Serialize(%s) diverged (%v)", g, q, err)
						return
					}
				case 3:
					// Shared compiled query evaluated concurrently.
					if n, _ := shared[i].CountCtx(context.Background()); n != want[i].count {
						errc <- fmt.Errorf("g%d shared Count(%s) = %d, want %d", g, q, n, want[i].count)
						return
					}
					_ = shared[i].Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentClones runs WithQueryOptions clones concurrently
// with their parent on the same index: results must agree and no state may
// be shared (the -race run enforces the latter).
func TestConcurrentClones(t *testing.T) {
	eng, err := BuildContext(context.Background(), gen.Medline(5, 32<<10), Config{SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	const q = "//MedlineCitation//Author/LastName"
	base, err := eng.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				e := eng
				switch g % 3 {
				case 1:
					e = eng.WithQueryOptions(xpath.Options{Eval: automata.Options{NoJump: it%2 == 0, NoLazy: true}})
				case 2:
					e = eng.WithQueryOptions(xpath.Options{ForceStrategy: xpath.StrategyTopDown, ForceNaiveText: it%2 == 0})
				}
				if n, err := e.Count(context.Background(), q); err != nil || n != base {
					errc <- fmt.Errorf("g%d it%d: count %d, %v; want %d", g, it, n, err, base)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCloneDoesNotAliasCustomMatchSets pins the WithQueryOptions
// bugfix: mutating the options map passed in (or the parent's registry)
// after cloning must not leak into the clone.
func TestCloneDoesNotAliasCustomMatchSets(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(doc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := xpath.Options{CustomMatchSets: map[string]func(string) []int32{
		"only": func(string) []int32 { return []int32{2} },
	}}
	clone := e.WithQueryOptions(opts)
	// Caller mutates its map after the clone was taken.
	opts.CustomMatchSets["evil"] = func(string) []int32 { return []int32{0} }
	delete(opts.CustomMatchSets, "only")
	if n, err := clone.Count(context.Background(), "//b[only(., 'x')]"); err != nil || n != 1 {
		t.Fatalf("clone lost its predicate: n=%d err=%v", n, err)
	}
	if _, err := clone.Count(context.Background(), "//b[evil(., 'x')]"); err == nil {
		t.Fatal("clone picked up a predicate registered after cloning")
	}
	// A second-generation clone must not alias the first one's map either.
	o := clone.opts.Query
	o.Eval = automata.Options{NoJump: true}
	c2 := clone.WithQueryOptions(o)
	if n, err := c2.Count(context.Background(), "//b[only(., 'x')]"); err != nil || n != 1 {
		t.Fatalf("second-generation clone lost the predicate: n=%d err=%v", n, err)
	}
}
