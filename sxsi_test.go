package sxsi

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

const sampleDoc = `<parts><part name="pen"><color>blue</color><stock>40</stock></part><part name="rubber"><stock>30</stock></part></parts>`

func TestBuildAndQuery(t *testing.T) {
	idx, err := Build(context.Background(), []byte(sampleDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := idx.Count(context.Background(), "//stock")
	if err != nil || n != 2 {
		t.Fatalf("count=%d err=%v", n, err)
	}
	var buf bytes.Buffer
	k, err := idx.Serialize(context.Background(), "//part[@name = 'pen']/color", &buf)
	if err != nil || k != 1 {
		t.Fatalf("k=%d err=%v", k, err)
	}
	if strings.TrimSpace(buf.String()) != "<color>blue</color>" {
		t.Fatalf("serialized %q", buf.String())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	data := gen.XMark(11, 100_000)
	idx, err := Build(context.Background(), data, Config{SampleRate: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	idx2, err := Load(bytes.NewReader(buf.Bytes()), Config{SampleRate: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//listitem//keyword",
		"/site/regions",
		"//person[address and (phone or homepage)]/name",
		"//keyword[contains(., 'unique')]",
		"//item/@id",
	}
	for _, q := range queries {
		a, err := idx.Count(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := idx2.Count(context.Background(), q)
		if err != nil {
			t.Fatalf("%s after load: %v", q, err)
		}
		if a != b {
			t.Fatalf("%s: before=%d after=%d", q, a, b)
		}
	}
	// Serialization must agree too.
	var s1, s2 bytes.Buffer
	if _, err := idx.Serialize(context.Background(), "//listitem//keyword", &s1); err != nil {
		t.Fatal(err)
	}
	if _, err := idx2.Serialize(context.Background(), "//listitem//keyword", &s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("serialization differs after reload")
	}
}

// TestSavedIndexByteIdentical proves a pre-existing .sxsi payload survives
// the sampled-select change with no format or version bump: the select
// samples are rebuilt during Load (they are derived from the rank
// directory, never persisted), so saving a loaded index reproduces the
// original bytes exactly.
func TestSavedIndexByteIdentical(t *testing.T) {
	data := gen.XMark(23, 150_000)
	idx, err := Build(context.Background(), data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	idx2, err := Load(bytes.NewReader(saved), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The loaded index must answer queries (its select samples exist)...
	if n, err := idx2.Count(context.Background(), "//keyword"); err != nil || n == 0 {
		t.Fatalf("loaded index count=%d err=%v", n, err)
	}
	// ...and re-serialize to the identical byte stream.
	var buf2 bytes.Buffer
	if _, err := idx2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("re-saved index differs from the original payload")
	}
}

// TestLoadFasterThanBuild pins the point of the persistence layer: loading
// a saved index must beat rebuilding by at least an order of magnitude,
// because loading skips parsing and suffix sorting entirely (Figure 8).
func TestLoadFasterThanBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	data := gen.XMark(7, 2_000_000)
	idx, err := Build(context.Background(), data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	build := func() {
		if _, err := Build(context.Background(), data, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	load := func() {
		if _, err := Load(bytes.NewReader(saved), Config{}); err != nil {
			t.Fatal(err)
		}
	}
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	// Warm up once, then take the best of three to damp scheduler noise.
	build()
	load()
	best := func(f func()) time.Duration {
		b := timeIt(f)
		for i := 0; i < 2; i++ {
			if d := timeIt(f); d < b {
				b = d
			}
		}
		return b
	}
	tb, tl := best(build), best(load)
	t.Logf("build=%v load=%v ratio=%.1fx", tb, tl, float64(tb)/float64(tl))
	// Locally the ratio is well above 10x (see BenchmarkBuild/BenchmarkLoad
	// for the headline numbers); the hard gate here is looser so noisy
	// shared CI runners do not fail spuriously.
	if tl*5 > tb {
		t.Fatalf("load (%v) is not 5x faster than build (%v)", tl, tb)
	}
}

// TestLoadedIndexIdenticalOutput is the build-once/serve-many contract:
// the saved-then-loaded index must produce byte-identical query output to
// the freshly built one, across result serialization, counting, and node
// materialization.
func TestLoadedIndexIdenticalOutput(t *testing.T) {
	data := gen.Medline(5, 200_000)
	fresh, err := Build(context.Background(), data, Config{SampleRate: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Config{SampleRate: 32})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//MedlineCitation",
		"//Author/LastName",
		"//Article[Journal]//Title",
		"//PMID",
	}
	for _, q := range queries {
		var s1, s2 bytes.Buffer
		k1, err1 := fresh.Serialize(context.Background(), q, &s1)
		k2, err2 := loaded.Serialize(context.Background(), q, &s2)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("%s: k=%d/%d err=%v/%v", q, k1, k2, err1, err2)
		}
		if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
			t.Fatalf("%s: serialized output differs", q)
		}
		n1, _ := fresh.Nodes(context.Background(), q)
		n2, _ := loaded.Nodes(context.Background(), q)
		if len(n1) != len(n2) {
			t.Fatalf("%s: node count differs", q)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("%s: node %d differs", q, i)
			}
		}
	}
}

func TestStats(t *testing.T) {
	idx, err := Build(context.Background(), []byte(sampleDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Nodes != 16 || st.Texts != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.TreeBytes <= 0 || st.TextBytes <= 0 {
		t.Fatalf("sizes %+v", st)
	}
}

func TestBadInput(t *testing.T) {
	if _, err := Build(context.Background(), []byte("<unclosed>"), Config{}); err == nil {
		t.Fatal("expected parse error")
	}
	idx, _ := Build(context.Background(), []byte(sampleDoc), Config{})
	if _, err := idx.Count(context.Background(), "//a["); err == nil {
		t.Fatal("expected query error")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage")), Config{}); err == nil {
		t.Fatal("expected load error")
	}
}
