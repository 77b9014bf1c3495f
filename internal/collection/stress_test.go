package collection

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestConcurrentCollection hammers one Collection from many goroutines:
// batch queries over the shared compiled-query cache, single requests,
// stats polling, concurrent document churn (replace/remove/re-add of a
// scratch document, open/reload/remove of a file-backed one), registry
// reads, searches and cache lookups. Every method that reads or writes a
// guarded field (docs, sources, cache) runs beside that field's writers,
// so under -race a dropped lock fails here. This is the serving-layer
// concurrency contract test.
func TestConcurrentCollection(t *testing.T) {
	c := New(Config{Workers: 4, CacheSize: 8})
	corpora := map[string][]byte{
		"xmark":   gen.XMark(1, 32<<10),
		"medline": gen.Medline(2, 32<<10),
		"wiki":    gen.Wiki(3, 32<<10),
	}
	for name, data := range corpora {
		eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 8})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(name, eng)
	}
	queries := map[string][]string{
		"xmark":   {"//listitem//keyword", "//item[@id]/name", "//person//emailaddress"},
		"medline": {"//Author/LastName", "//MedlineCitation[.//Country = 'usa']"},
		"wiki":    {"//page/title", "//revision//text()"},
	}
	// Serial ground truth.
	want := map[string]int64{}
	for doc, qs := range queries {
		for _, q := range qs {
			res := c.DoContext(context.Background(), Request{Doc: doc, Query: q, Mode: ModeCount})
			if res.Err != nil {
				t.Fatalf("%s %s: %v", doc, q, res.Err)
			}
			want[doc+"\x00"+q] = res.Count
		}
	}
	scratch, err := core.BuildContext(context.Background(), []byte(`<s><x/><x/></s>`), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	filePath := filepath.Join(t.TempDir(), "file.sxsi")
	if _, err := scratch.SaveFile(filePath); err != nil {
		t.Fatal(err)
	}

	const goroutines = 18
	const iters = 25
	// The readers (cases 3 and 5) run until every churner (cases 2 and 4)
	// is done, so each guarded read overlaps the writes it must not race.
	var churning atomic.Int32
	churning.Store(goroutines / 3)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%6 == 2 || g%6 == 4 {
				defer churning.Add(-1)
			}
			reader := g%6 == 3 || g%6 == 5
			for it := 0; it < iters || reader && churning.Load() > 0; it++ {
				switch g % 6 {
				case 0: // batch across all documents
					var reqs []Request
					for doc, qs := range queries {
						for _, q := range qs {
							reqs = append(reqs, Request{Doc: doc, Query: q, Mode: ModeCount})
						}
					}
					for _, res := range c.Query(context.Background(), reqs) {
						if res.Err != nil || res.Count != want[res.Doc+"\x00"+res.Query] {
							errc <- fmt.Errorf("g%d batch %s %s: %d, %v", g, res.Doc, res.Query, res.Count, res.Err)
							return
						}
					}
				case 1: // single serialize + nodes requests
					res := c.DoContext(context.Background(), Request{Doc: "xmark", Query: "//listitem//keyword", Mode: ModeSerialize})
					if res.Err != nil || res.Count != want["xmark\x00//listitem//keyword"] {
						errc <- fmt.Errorf("g%d serialize: %d, %v", g, res.Count, res.Err)
						return
					}
				case 2: // document churn on a name the queries never touch
					c.Add("scratch", scratch)
					if res := c.DoContext(context.Background(), Request{Doc: "scratch", Query: "//x", Mode: ModeCount}); res.Err == nil && res.Count != 2 {
						errc <- fmt.Errorf("g%d scratch count %d", g, res.Count)
						return
					}
					c.Remove("scratch")
				case 3: // stats polling and misses
					_ = c.Stats()
					_ = c.Names()
					res := c.DoContext(context.Background(), Request{Doc: "absent", Query: "//x", Mode: ModeCount})
					if !errors.Is(res.Err, ErrUnknownDoc) {
						errc <- fmt.Errorf("g%d: want ErrUnknownDoc, got %v", g, res.Err)
						return
					}
				case 4: // file-backed churn: sources are written and reloaded
					if err := c.Open("file", filePath); err != nil {
						errc <- fmt.Errorf("g%d open: %v", g, err)
						return
					}
					if rep := c.Reload(context.Background()); len(rep.Failed) != 0 {
						errc <- fmt.Errorf("g%d reload: %v", g, rep.Failed)
						return
					}
					c.Remove("file")
				case 5: // registry reads, searches and cache lookups
					if n := c.Len(); n < len(corpora) {
						errc <- fmt.Errorf("g%d: Len %d", g, n)
						return
					}
					if _, ok := c.Get("xmark"); !ok {
						errc <- fmt.Errorf("g%d: Get lost xmark", g)
						return
					}
					if _, err := c.Search(context.Background(), "gold", "", 5); err != nil {
						errc <- fmt.Errorf("g%d search: %v", g, err)
						return
					}
					if _, err := c.Compiled("wiki", "//page/title"); err != nil {
						errc <- fmt.Errorf("g%d compiled: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := c.Stats(); st.Queries == 0 || st.CacheHits == 0 {
		t.Fatalf("stress recorded no traffic: %+v", st)
	}
}
