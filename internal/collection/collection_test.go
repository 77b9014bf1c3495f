package collection

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

const testXML = `<lib><book id="1"><title>gold rush</title><author>Kim</author></book>` +
	`<book id="2"><title>silver age</title><author>Lee</author></book>` +
	`<note>gold note</note></lib>`

func buildEngine(t *testing.T, xml string) *core.Engine {
	t.Helper()
	eng, err := core.BuildContext(context.Background(), []byte(xml), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRegistry(t *testing.T) {
	c := New(Config{})
	c.Add("a", buildEngine(t, testXML))
	c.Add("b", buildEngine(t, `<x><y>z</y></x>`))
	if got := c.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names = %v", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missing")
	}
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get(a) after Remove")
	}
}

func TestOpenSniffsIndexAndXML(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte(testXML), 0o666); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "doc.sxsi")
	if _, err := buildEngine(t, testXML).SaveFile(idxPath); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	if err := c.Open("raw", xmlPath); err != nil {
		t.Fatal(err)
	}
	if err := c.Open("saved", idxPath); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"raw", "saved"} {
		res := c.DoContext(context.Background(), Request{Doc: name, Query: "//book/title", Mode: ModeCount})
		if res.Err != nil || res.Count != 2 {
			t.Fatalf("%s: count = %d, err = %v", name, res.Count, res.Err)
		}
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	// a: saved index plus a deliberately different same-named .xml — the
	// .sxsi must shadow it.
	if _, err := buildEngine(t, testXML).SaveFile(filepath.Join(dir, "a.sxsi")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte(`<other/>`), 0o666); err != nil {
		t.Fatal(err)
	}
	// b, c: raw XML, built on miss.
	if err := os.WriteFile(filepath.Join(dir, "b.xml"), gen.XMark(1, 4096), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.xml"), gen.Medline(2, 4096), 0o666); err != nil {
		t.Fatal(err)
	}
	// Ignored: directories and other extensions.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o777); err != nil {
		t.Fatal(err)
	}

	c := New(Config{Workers: 4})
	names, err := c.LoadDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("LoadDir names = %v, want %v", names, want)
	}
	if res := c.DoContext(context.Background(), Request{Doc: "a", Query: "//book", Mode: ModeCount}); res.Err != nil || res.Count != 2 {
		t.Fatalf("a//book = %d, err %v (index did not shadow a.xml?)", res.Count, res.Err)
	}
	if res := c.DoContext(context.Background(), Request{Doc: "b", Query: "//item", Mode: ModeCount}); res.Err != nil || res.Count == 0 {
		t.Fatalf("b//item = %d, err %v", res.Count, res.Err)
	}
}

func TestLoadDirErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte(`<unclosed>`), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "good.xml"), []byte(testXML), 0o666); err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	names, err := c.LoadDir(context.Background(), dir)
	if err == nil {
		t.Fatal("want error for bad.xml")
	}
	if !reflect.DeepEqual(names, []string{"good"}) {
		t.Fatalf("names = %v, want the good document registered", names)
	}
}

func TestBatchQueryModes(t *testing.T) {
	c := New(Config{Workers: 3})
	c.Add("lib", buildEngine(t, testXML))
	reqs := []Request{
		{Doc: "lib", Query: "//book", Mode: ModeCount},
		{Doc: "lib", Query: "//title", Mode: ModeNodes},
		{Doc: "lib", Query: "//note", Mode: ModeSerialize},
		{Doc: "nope", Query: "//x", Mode: ModeCount},
		{Doc: "lib", Query: "//book[", Mode: ModeCount},
	}
	out := c.Query(context.Background(), reqs)
	if out[0].Err != nil || out[0].Count != 2 {
		t.Fatalf("count: %+v", out[0])
	}
	if out[1].Err != nil || len(out[1].Nodes) != 2 || out[1].Count != 2 {
		t.Fatalf("nodes: %+v", out[1])
	}
	if out[2].Err != nil || string(out[2].Output) != "<note>gold note</note>\n" {
		t.Fatalf("serialize: %+v %q", out[2], out[2].Output)
	}
	if !errors.Is(out[3].Err, ErrUnknownDoc) {
		t.Fatalf("unknown doc: err = %v", out[3].Err)
	}
	if out[4].Err == nil {
		t.Fatal("parse error expected")
	}
	// Order must match the request order.
	for i, r := range out {
		if r.Doc != reqs[i].Doc || r.Query != reqs[i].Query {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

func TestBatchQueryCancel(t *testing.T) {
	c := New(Config{Workers: 1})
	c.Add("lib", buildEngine(t, testXML))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Doc: "lib", Query: "//book", Mode: ModeCount}
	}
	out := c.Query(ctx, reqs)
	sawCancel := false
	for _, r := range out {
		if errors.Is(r.Err, context.Canceled) {
			sawCancel = true
		} else if r.Err != nil {
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if !sawCancel {
		t.Fatal("no request observed the cancellation")
	}
}

func TestQueryCache(t *testing.T) {
	c := New(Config{CacheSize: 2})
	c.Add("lib", buildEngine(t, testXML))

	for i := 0; i < 3; i++ {
		if res := c.DoContext(context.Background(), Request{Doc: "lib", Query: "//book", Mode: ModeCount}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := c.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}

	// Capacity 2: a third distinct query evicts the LRU entry.
	c.DoContext(context.Background(), Request{Doc: "lib", Query: "//title", Mode: ModeCount})
	c.DoContext(context.Background(), Request{Doc: "lib", Query: "//note", Mode: ModeCount})
	if got := c.Stats().CacheLen; got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}

	// Replacing the document must drop its cached queries: the new content
	// has three books, and a stale compiled query would still answer 2.
	c.Add("lib", buildEngine(t, `<lib><book/><book/><book/></lib>`))
	if res := c.DoContext(context.Background(), Request{Doc: "lib", Query: "//book", Mode: ModeCount}); res.Count != 3 {
		t.Fatalf("stale cache: count = %d after replacing document", res.Count)
	}
	if got := c.Stats().CacheLen; got != 1 {
		t.Fatalf("cache len after replace = %d, want 1", got)
	}
}

// TestCacheRejectsStaleInsert simulates the compile/replace race: a query
// compiled against the old engine lands in the cache *after* the document
// was replaced (so dropCached could not remove it). The engine recorded in
// the entry no longer matches, so the lookup must treat it as a miss
// instead of serving results from the old document.
func TestCacheRejectsStaleInsert(t *testing.T) {
	c := New(Config{})
	oldEng := buildEngine(t, testXML) // 2 books
	c.Add("lib", oldEng)
	staleQ, err := oldEng.Compile("//book")
	if err != nil {
		t.Fatal(err)
	}
	c.Add("lib", buildEngine(t, `<lib><book/><book/><book/></lib>`))
	// The racing goroutine's cache.add fires now, post-invalidation.
	c.cacheMu.Lock()
	c.cache.add(qkey{doc: "lib", query: "//book"}, cachedQuery{q: staleQ, eng: oldEng})
	c.cacheMu.Unlock()
	if res := c.DoContext(context.Background(), Request{Doc: "lib", Query: "//book", Mode: ModeCount}); res.Err != nil || res.Count != 3 {
		t.Fatalf("served stale cached query: count = %d, err = %v", res.Count, res.Err)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New(Config{CacheSize: -1})
	c.Add("lib", buildEngine(t, testXML))
	for i := 0; i < 2; i++ {
		if res := c.DoContext(context.Background(), Request{Doc: "lib", Query: "//book", Mode: ModeCount}); res.Err != nil || res.Count != 2 {
			t.Fatalf("%+v", res)
		}
	}
	if st := c.Stats(); st.CacheHits != 0 || st.CacheLen != 0 {
		t.Fatalf("disabled cache recorded hits: %+v", st)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeCount, "count": ModeCount, "nodes": ModeNodes, "serialize": ModeSerialize, "query": ModeSerialize} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus) succeeded")
	}
}

// TestOpenMapsByDefault: a saved index opens memory-mapped (zero-copy),
// the NoMmap knob opts out, and the collection stats aggregate the split.
func TestOpenMapsByDefault(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "doc.sxsi")
	n, err := buildEngine(t, testXML).SaveFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	if err := c.Open("doc", idxPath); err != nil {
		t.Fatal(err)
	}
	eng, _ := c.Get("doc")
	if !eng.Mapped() {
		t.Fatal("saved index did not open mapped")
	}
	st := c.Stats()
	if st.MappedDocs != 1 || st.MappedBytes != n {
		t.Fatalf("stats = %+v, want 1 mapped doc of %d bytes", st, n)
	}

	nc := New(Config{Index: core.Config{NoMmap: true}})
	if err := nc.Open("doc", idxPath); err != nil {
		t.Fatal(err)
	}
	eng, _ = nc.Get("doc")
	if eng.Mapped() {
		t.Fatal("NoMmap collection mapped anyway")
	}
	if st := nc.Stats(); st.MappedDocs != 0 || st.MappedBytes != 0 {
		t.Fatalf("NoMmap stats = %+v", st)
	}

	// Mapped and copied engines answer identically.
	a := c.DoContext(context.Background(), Request{Doc: "doc", Query: "//book/title", Mode: ModeSerialize})
	b := nc.DoContext(context.Background(), Request{Doc: "doc", Query: "//book/title", Mode: ModeSerialize})
	if a.Err != nil || b.Err != nil || string(a.Output) != string(b.Output) {
		t.Fatalf("outputs differ: %q/%v vs %q/%v", a.Output, a.Err, b.Output, b.Err)
	}
}
