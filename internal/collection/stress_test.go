package collection

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestConcurrentCollection hammers one Collection from many goroutines:
// batch queries over the shared compiled-query cache, single requests,
// stats polling, and concurrent document churn (replace/remove/re-add of a
// scratch document). Under -race this is the serving-layer concurrency
// contract test.
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

	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch g % 4 {
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
