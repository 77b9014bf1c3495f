package build

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/fmindex"
	"repro/internal/gen"
	"repro/internal/xmltree"
)

var corpora = []struct {
	name string
	data func(seed uint64) []byte
}{
	{"xmark", func(s uint64) []byte { return gen.XMark(s, 256<<10) }},
	{"medline", func(s uint64) []byte { return gen.Medline(s, 256<<10) }},
	{"treebank", func(s uint64) []byte { return gen.Treebank(s, 128<<10) }},
	{"wiki", func(s uint64) []byte { return gen.Wiki(s, 256<<10) }},
	{"bioxml", func(s uint64) []byte { return gen.BioXML(s, 256<<10) }},
}

func docBytes(t *testing.T, d *xmltree.Doc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestByteIdenticalAcrossCorpora is the pipeline equivalence suite: for
// every oracle corpus, worker count in {1, 2, 8} and memory budget in
// {unbounded, tight}, the staged parallel build serializes to exactly the
// bytes of xmltree.Parse, which runs the stages one after another with the
// default build options. The tight budget (1 MiB
// against ~256 KiB documents) forces multi-chunk sorting with spilled
// suffix arrays, so the chunk/merge/spill machinery is in the loop.
func TestByteIdenticalAcrossCorpora(t *testing.T) {
	opts := xmltree.Options{SampleRate: 8}
	for _, c := range corpora {
		data := c.data(1)
		serial, err := xmltree.Parse(data, opts)
		if err != nil {
			t.Fatalf("%s: serial parse: %v", c.name, err)
		}
		want := docBytes(t, serial)
		for _, procs := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 1 << 20} {
				var st fmindex.BuildStats
				doc, err := Document(context.Background(), data, Options{
					Tree: opts, Procs: procs, MemoryBudget: budget,
					TempDir: t.TempDir(), FMStats: &st,
				})
				if err != nil {
					t.Fatalf("%s p=%d mem=%d: %v", c.name, procs, budget, err)
				}
				if !bytes.Equal(want, docBytes(t, doc)) {
					t.Fatalf("%s p=%d mem=%d: serialized index differs from xmltree.Parse",
						c.name, procs, budget)
				}
				if budget > 0 && c.name == "xmark" && !st.Spilled {
					t.Fatalf("xmark tight budget: expected spilled suffix arrays, stats %+v", st)
				}
			}
		}
	}
}

// The bounded xmark build must split the text collection into several
// chunks — otherwise the equivalence suite above would never exercise the
// multi-chunk merge on realistic input.
func TestTightBudgetChunks(t *testing.T) {
	data := gen.XMark(2, 512<<10)
	var st fmindex.BuildStats
	_, err := Document(context.Background(), data, Options{
		Tree: xmltree.Options{SampleRate: 8}, Procs: 4, MemoryBudget: 1 << 20,
		TempDir: t.TempDir(), FMStats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks < 2 {
		t.Fatalf("expected a multi-chunk plan, got %+v", st)
	}
}

// pollCtx reports itself done starting from the nth Err call, without any
// timer: it cancels deterministically at a context poll site. The counter
// is atomic because concurrent sort workers poll the same context.
type pollCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (p *pollCtx) Err() error {
	if p.calls.Add(1) >= p.after {
		return context.Canceled
	}
	return nil
}

func (p *pollCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func TestBuildCancellation(t *testing.T) {
	data := gen.XMark(3, 256<<10)

	t.Run("already cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Document(ctx, data, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})

	// Cancel at poll sites spread across the whole build — the parse loop,
	// the sort, the merge, the assembly checks. First count how many polls
	// a full build performs, then cancel at points across that range. Every
	// build must fail with the context error and leave the spill directory
	// clean.
	t.Run("mid flight", func(t *testing.T) {
		probe := &pollCtx{Context: context.Background(), after: 1 << 60}
		if _, err := Document(probe, data, Options{
			Procs: 2, MemoryBudget: 1 << 20, TempDir: t.TempDir(),
		}); err != nil {
			t.Fatal(err)
		}
		total := probe.calls.Load()
		if total < 4 {
			t.Fatalf("only %d poll sites hit — cancellation coverage too sparse", total)
		}
		for _, after := range []int64{1, 2, total / 3, 2 * total / 3, total} {
			if after < 1 {
				after = 1
			}
			dir := t.TempDir()
			ctx := &pollCtx{Context: context.Background(), after: after}
			_, err := Document(ctx, data, Options{
				Procs: 2, MemoryBudget: 1 << 20, TempDir: dir,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("after=%d/%d: want context.Canceled, got %v", after, total, err)
			}
			ents, derr := os.ReadDir(dir)
			if derr != nil {
				t.Fatal(derr)
			}
			if len(ents) != 0 {
				t.Fatalf("after=%d: spill files left behind: %v", after, ents)
			}
		}
	})
}

// A failed build must leave no reachable partial state: repeated failing
// builds of a ~1 MiB document may not grow the live heap. The failure is
// injected through an attribute value carrying an encoded NUL byte — the
// parser passes it through (only PCDATA text is NUL-sanitized), so the
// pipeline fails deep inside the FM stage, after the parse product and the
// structural side already exist.
func TestFailedBuildLeaksNothing(t *testing.T) {
	var doc bytes.Buffer
	doc.WriteString(`<root bad="x&#0;y">`)
	filler := gen.XMark(4, 1<<20)
	// Embed the filler inside our root by stripping nothing: just append
	// it as a sibling subtree via a wrapper element.
	doc.WriteString("<w>")
	doc.Write(filler)
	doc.WriteString("</w></root>")
	data := doc.Bytes()

	if _, err := Document(context.Background(), data, Options{}); !errors.Is(err, fmindex.ErrNulByte) {
		t.Fatalf("want ErrNulByte, got %v", err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		if _, err := Document(context.Background(), data, Options{}); err == nil {
			t.Fatal("build unexpectedly succeeded")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Five leaked builds of a 1 MiB document would retain tens of MiB
	// (parse arrays, structure, partial FM state). Allow 4 MiB of noise.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 4<<20 {
		t.Fatalf("heap grew by %d bytes across failed builds", growth)
	}
}
