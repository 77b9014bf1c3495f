package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/persist/persisttest"
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
		built, err := Build(c.data, Config{SampleRate: 8})
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		path := filepath.Join(dir, c.name+".sxsi")
		if _, err := built.SaveFile(path); err != nil {
			t.Fatalf("%s: save: %v", c.name, err)
		}
		copied, err := LoadFile(path, Config{SampleRate: 8})
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
			t.Fatalf("%s: LoadFile claims to be mapped", c.name)
		}
		for _, cfg := range configs {
			em := mapped.WithQueryOptions(cfg.opts)
			ec := copied.WithQueryOptions(cfg.opts)
			for _, q := range c.qs {
				nm, err1 := em.Count(q)
				nc, err2 := ec.Count(q)
				if err1 != nil || err2 != nil || nm != nc {
					t.Fatalf("%s/%s/%s: count %d/%v vs %d/%v", c.name, cfg.name, q, nm, err1, nc, err2)
				}
				var sm, sc bytes.Buffer
				km, err1 := em.Serialize(q, &sm)
				kc, err2 := ec.Serialize(q, &sc)
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
	e, err := Build([]byte(persistDoc), Config{})
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
	for range 3 {
		pw.Int32s(mr.Int32s()) // lens, doc, ps
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

// TestOpenFileFallbacks: NoMmap, LoadFile and Load decode a heap buffer
// and still answer queries; a file of a retired format version (2, the
// unaligned layout) is refused typed on every path, naming the rebuild.
func TestOpenFileFallbacks(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
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
		if n, err := eng.Count("//item"); err != nil || n != 2 {
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
	"LoadFile":        func(p string) (*Engine, error) { return LoadFile(p, Config{}) },
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
	eng, err := Build(gen.Medline(13, 30_000), Config{SampleRate: 8})
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
	e, err := Build([]byte(persistDoc), Config{})
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
	if c := mapped.WithEval(automata.Options{}); !c.Mapped() || c.Stats() != st {
		t.Fatalf("mapped clone stats %+v differ from %+v", c.Stats(), st)
	}
}

// TestSaveFileAtomic: SaveFile leaves exactly the target file — no
// temporaries — both for fresh writes and overwrites, and the result
// loads. A failed save (unwritable directory) must not leave debris.
func TestSaveFileAtomic(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
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

// TestEngineCloseIdempotent: Close twice, and Close on a heap engine, are
// both fine.
func TestEngineCloseIdempotent(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
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
	m, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedEngineIsZeroCopy pins the aliasing property at the engine
// level: the mapped document's parenthesis words must point into the
// mapped region, not at a private copy.
func TestMappedEngineIsZeroCopy(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
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
	a, _ := m.Count("//item")
	b, _ := m2.Count("//item")
	if a != b || a != 2 {
		t.Fatalf("counts %d/%d", a, b)
	}
}
