package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
)

// docSpec names one generated document of a workload's corpus.
type docSpec struct {
	name  string
	kind  string // xmark | medline | treebank | wiki
	bytes int    // generator target size
	salt  uint64 // mixed into the run seed so documents of one kind differ
}

// generate produces the document's XML from the run seed.
func (d docSpec) generate(seed uint64) []byte {
	s := seed*1000003 + d.salt
	switch d.kind {
	case "xmark":
		return gen.XMark(s, d.bytes)
	case "medline":
		return gen.Medline(s, d.bytes)
	case "treebank":
		return gen.Treebank(s, d.bytes)
	case "wiki":
		return gen.Wiki(s, d.bytes)
	}
	panic("benchmark: unknown document kind " + d.kind)
}

// openPasses is how many fresh collections open the saved corpus in one
// set-up pass, and extraOpens how many more do so after the timed phase;
// open_ms_per_doc is the lower quartile over all of them. A pass takes 50 ms
// and this machine has spells of a second or so in which one takes 75: the
// lower quartile of passes spread over the run repeats twice as closely as
// their median.
const (
	openPasses = 7
	extraOpens = 60
)

// served is a corpus that has been built, saved, opened and put behind an
// in-process HTTP server.
type served struct {
	dir  string
	docs []docSpec
	xml  map[string][]byte // source XML by document name, for the oracle
	coll *collection.Collection
	srv  *httptest.Server
	http *http.Client
}

// close stops the server and deletes the corpus; a nil receiver is a no-op.
func (s *served) close() {
	if s == nil {
		return
	}
	if s.srv != nil {
		s.http.CloseIdleConnections()
		s.srv.Close()
	}
	os.RemoveAll(s.dir)
}

// generate produces every document's XML from the run seed.
func generate(docs []docSpec, seed uint64) map[string][]byte {
	xml := make(map[string][]byte, len(docs))
	for _, d := range docs {
		xml[d.name] = d.generate(seed)
	}
	return xml
}

// setupTimes are the phase durations of one set-up pass.
type setupTimes struct {
	total    time.Duration // generate + build + save + opens + warm-up
	build    time.Duration // inside core.BuildContext only
	opens    []float64     // every LoadDir pass, in nanoseconds
	srcBytes int64
	idxBytes int64
}

// setUp runs one full set-up pass into a fresh directory under work:
// generate → build → save → openPasses × (New + LoadDir) → warm-up, where
// warm-up issues every distinct operation once over HTTP, in the order the
// sequence first uses them.
func setUp(ctx context.Context, work string, seed uint64, docs []docSpec, distinct []*opSpec, seq []int) (_ *served, st setupTimes, err error) {
	dir, err := os.MkdirTemp(work, "corpus-")
	if err != nil {
		return nil, st, err
	}
	s := &served{dir: dir, docs: docs}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	t0 := time.Now()
	s.xml = generate(docs, seed)
	for _, d := range docs {
		xml := s.xml[d.name]
		st.srcBytes += int64(len(xml))
		b0 := time.Now()
		eng, err := core.BuildContext(ctx, xml, core.Config{})
		st.build += time.Since(b0)
		if err != nil {
			return nil, st, fmt.Errorf("build %s: %w", d.name, err)
		}
		n, err := eng.SaveFile(filepath.Join(dir, d.name+".sxsi"))
		if err != nil {
			return nil, st, fmt.Errorf("save %s: %w", d.name, err)
		}
		st.idxBytes += n
	}

	for i := 0; i < openPasses; i++ {
		coll, d, err := openOnce(ctx, dir, len(docs))
		if err != nil {
			return nil, st, fmt.Errorf("open pass %d: %w", i, err)
		}
		s.coll = coll
		st.opens = append(st.opens, float64(d))
	}

	s.srv = httptest.NewServer(service.New(s.coll))
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	cl := newClient(s)
	warmed := make([]bool, len(distinct))
	for _, i := range seq {
		if warmed[i] {
			continue
		}
		warmed[i] = true
		if _, err := cl.do(distinct[i]); err != nil {
			return nil, st, fmt.Errorf("warm-up %s: %w", distinct[i].class, err)
		}
	}
	st.total = time.Since(t0)
	return s, st, nil
}

// openOnce opens the saved corpus in dir with a fresh default-config
// collection and times the LoadDir call. The collector runs first, so that
// every pass starts from the same heap: how many collection cycles fall
// inside a pass is half its cost.
func openOnce(ctx context.Context, dir string, docs int) (*collection.Collection, time.Duration, error) {
	coll := collection.New(collection.Config{})
	runtime.GC()
	t0 := time.Now()
	names, err := coll.LoadDir(ctx, dir)
	d := time.Since(t0)
	if err != nil || len(names) != docs {
		return nil, d, fmt.Errorf("%d of %d documents: %v", len(names), docs, err)
	}
	return coll, d, nil
}

// residentBytes is the resident_mb numerator: the collection's own mapped
// and heap accounting plus the posting tier, all computed sizes.
func residentBytes(c *collection.Collection) int64 {
	st := c.Stats()
	n := st.MappedBytes + st.HeapBytes
	for _, name := range c.Names() {
		if eng, ok := c.Get(name); ok {
			n += int64(eng.Postings().SizeInBytes())
		}
	}
	return n
}
