package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/persist/persisttest"
	"repro/internal/search"
	"repro/internal/wavelet"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestMappedIdenticalOutput is the zero-copy correctness contract: for
// every corpus shape, a memory-mapped engine must produce byte-identical
// query output to the heap-buffer load path, under each of the three
// evaluator configurations the oracle suite uses (default planner,
// bottom-up disabled, naive text predicates).
func TestMappedIdenticalOutput(t *testing.T) {
	corpora := []struct {
		name string
		data []byte
		qs   []string
	}{
		{"xmark", gen.XMark(3, 60_000), []string{
			"//listitem//keyword", "//item[@id]/name", "//keyword/ancestor::listitem",
			"//parlist/preceding-sibling::text", "//closed_auction[annotation]",
		}},
		{"medline", gen.Medline(9, 60_000), []string{
			"//MedlineCitation", "//Author/LastName", "//PMID",
			"//Article[contains(., 'the')]",
		}},
		{"treebank", gen.Treebank(4, 40_000), []string{
			"//VP/preceding-sibling::NP", "//NP[not(.//PP)]", "//S//VP",
		}},
		{"wiki", gen.Wiki(5, 60_000), []string{
			"//page//title", "//revision/parent::page",
		}},
		{"bioxml", gen.BioXML(6, 60_000), []string{
			"//exon/ancestor-or-self::gene", "//sequence",
		}},
	}
	configs := []struct {
		name string
		opts xpath.Options
	}{
		{"default", xpath.Options{}},
		{"no-bottomup", xpath.Options{ForceStrategy: xpath.StrategyTopDown}},
		{"naive-text", xpath.Options{ForceNaiveText: true}},
	}
	dir := t.TempDir()
	for _, c := range corpora {
		built, err := BuildContext(context.Background(), c.data, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		path := filepath.Join(dir, c.name+".sxsi")
		if _, err := built.SaveFile(path); err != nil {
			t.Fatalf("%s: save: %v", c.name, err)
		}
		copied, err := OpenFile(path, Config{SampleRate: 8, NoMmap: true})
		if err != nil {
			t.Fatalf("%s: copy load: %v", c.name, err)
		}
		mapped, err := OpenFile(path, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: mapped open: %v", c.name, err)
		}
		if !mapped.Mapped() {
			t.Fatalf("%s: OpenFile did not map", c.name)
		}
		if copied.Mapped() {
			t.Fatalf("%s: NoMmap open claims to be mapped", c.name)
		}
		for _, cfg := range configs {
			em := mapped.WithQueryOptions(cfg.opts)
			ec := copied.WithQueryOptions(cfg.opts)
			for _, q := range c.qs {
				nm, err1 := em.Count(context.Background(), q)
				nc, err2 := ec.Count(context.Background(), q)
				if err1 != nil || err2 != nil || nm != nc {
					t.Fatalf("%s/%s/%s: count %d/%v vs %d/%v", c.name, cfg.name, q, nm, err1, nc, err2)
				}
				var sm, sc bytes.Buffer
				km, err1 := em.Serialize(context.Background(), q, &sm)
				kc, err2 := ec.Serialize(context.Background(), q, &sc)
				if err1 != nil || err2 != nil || km != kc {
					t.Fatalf("%s/%s/%s: serialize %d/%v vs %d/%v", c.name, cfg.name, q, km, err1, kc, err2)
				}
				if !bytes.Equal(sm.Bytes(), sc.Bytes()) {
					t.Fatalf("%s/%s/%s: serialized bytes differ", c.name, cfg.name, q)
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("%s: close: %v", c.name, err)
		}
	}
}

// TestOpenFileRawBWTRejected pins the retired raw-BWT sequence kind: an
// index whose FM section stores the BWT as a plain byte string (kind 0, the
// form the run-length configuration used to save) is refused as corrupt on
// every open path instead of being rebuilt into a wavelet tree.
func TestOpenFileRawBWTRejected(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if _, err := e.Save(&saved); err != nil {
		t.Fatal(err)
	}
	data, fm := saved.Bytes(), persisttest.Bytes(t, e.Doc.FM)
	at := bytes.Index(data, fm)
	if at < 0 {
		t.Fatal("FM section payload not found in the saved file")
	}
	// Swap the payload, rewrite its length header and keep the following
	// sections on their 8-byte offsets.
	raw := rawBWTPayload(t, fm)
	padded := func(n int) int { return n + -n&7 }
	out := append([]byte(nil), data[:at]...)
	binary.LittleEndian.PutUint64(out[at-8:], uint64(len(raw)))
	out = append(out, raw...)
	out = append(out, make([]byte, padded(len(raw))-len(raw))...)
	out = append(out, data[at+padded(len(fm)):]...)
	path := filepath.Join(t.TempDir(), "raw.sxsi")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range openPaths {
		if _, err := open(path); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt for a raw-BWT FM section, got %v", name, err)
		}
	}
}

// rawBWTPayload rewrites a stored FM-index payload into the retired
// sequence kind 0: the same sampling metadata, then the BWT as a
// length-prefixed byte string.
func rawBWTPayload(t *testing.T, fm []byte) []byte {
	t.Helper()
	mr := persist.NewMReader(fm)
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	pw.Byte(mr.Byte()) // format
	for range 3 {
		pw.Int(mr.Int()) // n, d, l
	}
	for range 2 {
		pw.Int32s(mr.Int32s()) // doc, ps
	}
	bitvec.ReadVector(mr).Store(pw)
	mr.Byte() // sequence kind 1: the wavelet tree
	wt := wavelet.Read(mr)
	if mr.Err() != nil {
		t.Fatal(mr.Err())
	}
	bwt := make([]byte, wt.Len())
	for i := range bwt {
		bwt[i] = wt.Access(i)
	}
	pw.Byte(0)
	pw.Bytes(bwt)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenFileFallbacks: NoMmap and Load decode a heap buffer
// and still answer queries; a file of a retired format version (2, the
// unaligned layout) is refused typed on every path, naming the rebuild.
func TestOpenFileFallbacks(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for name, open := range openPaths {
		eng, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "OpenFile" && eng.Mapped() {
			t.Fatalf("%s: heap-buffer engine claims to be mapped", name)
		}
		if n, err := eng.Count(context.Background(), "//item"); err != nil || n != 2 {
			t.Fatalf("%s: count=%d err=%v", name, n, err)
		}
		eng.Close()
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[len(xmltree.IndexMagic):], 2)
	oldPath := filepath.Join(dir, "old.sxsi")
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range openPaths {
		_, err := open(oldPath)
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "version 2") ||
			!strings.Contains(err.Error(), "sxsi build") {
			t.Fatalf("%s(v2): want a typed rebuild error, got %v", name, err)
		}
	}
}

// openPaths are the ways an engine is loaded from a saved file.
var openPaths = map[string]func(string) (*Engine, error){
	"OpenFile":        func(p string) (*Engine, error) { return OpenFile(p, Config{}) },
	"OpenFile/NoMmap": func(p string) (*Engine, error) { return OpenFile(p, Config{NoMmap: true}) },
	"Load": func(p string) (*Engine, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Load(f, Config{})
	},
}

// TestOpenFileCorruptMapped drives corrupted index files through OpenFile
// itself — a real mapping, unlike the heap buffers of the xmltree
// corruption suite — so the error path that unmaps while background
// validation could still be running is exercised against live mmap'd
// pages. Every outcome must be a clean load or a typed error; any crash
// here is a loader goroutine outliving its mapping.
func TestOpenFileCorruptMapped(t *testing.T) {
	eng, err := BuildContext(context.Background(), gen.Medline(13, 30_000), Config{SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(orig); i += 31 {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenFile(path, Config{SampleRate: 8})
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("byte %d: untyped error %v", i, err)
			}
			continue
		}
		got.Close()
	}
}

// TestMappedStats: the stats of a mapped engine expose the mapped/heap
// split; built engines and engines decoded from a heap buffer report zero
// mapped bytes, and the latter count the whole buffer as heap.
func TestMappedStats(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	n, err := e.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	st := mapped.Stats()
	if !st.Mapped || int64(st.MappedBytes) != n {
		t.Fatalf("mapped stats: %+v (file %d bytes)", st, n)
	}
	if hs := e.Stats(); hs.Mapped || hs.MappedBytes != 0 {
		t.Fatalf("built stats: %+v", hs)
	}
	for name, open := range openPaths {
		if name == "OpenFile" {
			continue
		}
		eng, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		hs := eng.Stats()
		if hs.Mapped || hs.MappedBytes != 0 || int64(hs.HeapBytes) < n {
			t.Fatalf("%s stats: %+v (file %d bytes)", name, hs, n)
		}
		if c := eng.WithQueryOptions(xpath.Options{}); c.Mapped() || c.Stats() != hs {
			t.Fatalf("%s: clone stats %+v differ from %+v", name, c.Stats(), hs)
		}
	}
	if c := mapped.WithQueryOptions(xpath.Options{Eval: automata.Options{}}); !c.Mapped() || c.Stats() != st {
		t.Fatalf("mapped clone stats %+v differ from %+v", c.Stats(), st)
	}
}

// TestSaveFileAtomic: SaveFile leaves exactly the target file — no
// temporaries — both for fresh writes and overwrites, and the result
// loads. A failed save (unwritable directory) must not leave debris.
func TestSaveFileAtomic(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.sxsi")
	for i := 0; i < 2; i++ { // fresh write, then overwrite
		if _, err := e.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "doc.sxsi" {
		names := make([]string, len(entries))
		for i, en := range entries {
			names[i] = en.Name()
		}
		t.Fatalf("directory not clean after save: %s", strings.Join(names, ", "))
	}
	if _, err := OpenFile(path, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SaveFile(filepath.Join(dir, "absent", "doc.sxsi")); err == nil {
		t.Fatal("save into missing directory: expected error")
	}
}

// TestEngineCloseIdempotent: Close on a built engine, and Close twice on
// every loaded image, are all fine.
func TestEngineCloseIdempotent(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for name, open := range openPaths {
		m, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 2; i++ {
			if err := m.Close(); err != nil {
				t.Fatalf("%s: close %d: %v", name, i+1, err)
			}
		}
	}
}

// faults runs fn and reports whether it panicked, as a memory fault does
// under debug.SetPanicOnFault.
func faults(fn func()) (faulted bool) {
	defer func() { faulted = recover() != nil }()
	fn()
	return false
}

// TestLoadedImageFaultsOnWrite: every loaded image is read-only, the
// private copies of Load and NoMmap as well as the mapping, so a write
// through a decoded payload faults instead of corrupting the index.
func TestLoadedImageFaultsOnWrite(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("the copying image is writable heap where syscall has no mprotect")
	}
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for name, open := range openPaths {
		m, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := &m.Doc.Par.BitWords()[0]
		if !faults(func() {
			*w = ^*w // faults on a read-only image
			*w = ^*w // restores a writable one
		}) {
			t.Errorf("%s: a write through the parenthesis words did not fault", name)
		}
		m.Close()
	}
}

// TestResultsOutliveClose: nothing a query or a search returns aliases the
// file image. Every public result of a mapped and of a Load engine is
// taken, the engine is closed, and only then is each result compared with
// a built engine's answer; a result that still points into the released
// image faults or differs.
func TestResultsOutliveClose(t *testing.T) {
	data := gen.Medline(7, 40_000)
	built, err := BuildContext(context.Background(), data, Config{SampleRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//Author/LastName", "//AbstractText[contains(., 'cell')]",
		"//MedlineCitation[contains(., 'blood cell')]", "//PMID/text()",
	}
	var terms [][]search.Term
	for _, q := range []string{"cell", "blood", `"blood cell"`, "the"} {
		ts, err := search.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		terms = append(terms, ts)
	}
	tokens := map[string]bool{}
	for id := 0; id < built.Doc.NumTexts(); id++ {
		for _, tok := range search.Tokenize(built.Doc.Text(id)) {
			tokens[tok] = true
		}
	}
	want := takeResults(t, built, queries, terms)

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, name := range []string{"Load", "OpenFile"} {
		e, err := openPaths[name](path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := takeResults(t, e, queries, terms)
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if faults(func() {
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("%s: query results differ after Close", name)
			}
			if got.postings.NumTerms() != want.postings.NumTerms() || got.postings.Tokens() != want.postings.Tokens() {
				t.Errorf("%s: postings shape differs after Close", name)
			}
			for tok := range tokens {
				if g, w := got.postings.TF(tok), want.postings.TF(tok); g != w {
					t.Errorf("%s: TF(%q) = %d after Close, want %d", name, tok, g, w)
				}
			}
		}) {
			t.Errorf("%s: reading results after Close faulted: they alias the image", name)
		}
	}
}

// closeResults is everything a caller can keep from an engine: per query
// its count, nodes, iterator values, existence and serialization, and per
// search its snippet, plus the postings.
type closeResults struct {
	results  []any
	postings *search.DocPostings
}

func takeResults(t *testing.T, e *Engine, queries []string, terms [][]search.Term) closeResults {
	t.Helper()
	ctx := context.Background()
	var r closeResults
	for _, q := range queries {
		n, err1 := e.Count(ctx, q)
		nodes, err2 := e.Nodes(ctx, q)
		ok, err3 := e.Exists(ctx, q)
		var out bytes.Buffer
		_, err4 := e.Serialize(ctx, q, &out)
		it, err5 := e.Iter(ctx, q)
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if n == 0 {
			t.Fatalf("%q selects nothing, which proves nothing", q)
		}
		var vals []int
		for x, more := it.Next(); more; x, more = it.Next() {
			vals = append(vals, x)
		}
		if err := errors.Join(it.Err(), it.Close()); err != nil {
			t.Fatalf("%q: iter: %v", q, err)
		}
		r.results = append(r.results, n, nodes, vals, ok, out.Bytes())
	}
	r.postings = e.Postings()
	for _, ts := range terms {
		snip, err := search.Snippet(ctx, r.postings, ts, 0)
		if err != nil || snip == "" {
			t.Fatalf("snippet of %v: %q, %v", ts, snip, err)
		}
		r.results = append(r.results, snip)
	}
	return r
}

// TestMappedEngineIsZeroCopy pins the aliasing property at the engine
// level: the mapped document's parenthesis words must point into the
// mapped region, not at a private copy.
func TestMappedEngineIsZeroCopy(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	image := m.backing.Data()
	words := m.Doc.Par.BitWords()
	base, p := uintptr(unsafe.Pointer(&image[0])), uintptr(unsafe.Pointer(&words[0]))
	if m.Doc.AliasedBytes() != len(image) || p < base || p >= base+uintptr(len(image)) {
		t.Fatal("parenthesis words do not alias the mapped file")
	}
	// The engine and a re-opened engine must not share heap: two separate
	// opens alias the same file but different mappings, and both answer.
	m2, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	a, _ := m.Count(context.Background(), "//item")
	b, _ := m2.Count(context.Background(), "//item")
	if a != b || a != 2 {
		t.Fatalf("counts %d/%d", a, b)
	}
}
