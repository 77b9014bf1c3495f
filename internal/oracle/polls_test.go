package oracle

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/gen"
	"repro/internal/sais"
	"repro/internal/search"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

var update = flag.Bool("update", false, "rewrite testdata/polls.golden")

// countCtx is a context that is never done but counts its Err calls. Done
// returns a channel that never closes rather than nil, so every entry
// point arms its polls instead of taking the uncancellable fast path.
type countCtx struct {
	context.Context
	done chan struct{}
	errs atomic.Int64 // concurrent build workers poll the same context
}

func newCountCtx() *countCtx {
	return &countCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *countCtx) Done() <-chan struct{} { return c.done }

func (c *countCtx) Err() error {
	c.errs.Add(1)
	return nil
}

// pollCase is one document-scale entry point. run does the entry's work
// under ctx and returns the entry's own work counter; stride is its
// documented poll interval in that unit. stride is 0 for the query
// evaluators, whose loops select on the Done channel cached at entry: no
// counter sees those polls, so only their upfront checks are counted here
// and the TestMidFlightCancel* suites of internal/xpath bound the rest.
type pollCase struct {
	name   string
	stride int64
	run    func(ctx context.Context) (work int64, err error)
}

// elemCounter counts the elements of a parse.
type elemCounter struct{ n int64 }

func (c *elemCounter) StartElement(string, []xmlparse.Attr) error { c.n++; return nil }
func (c *elemCounter) EndElement(string) error                    { return nil }
func (c *elemCounter) Text([]byte) error                          { return nil }

// TestPollCounts pins how often every document-scale entry point polls its
// context, each on a 1 MB input of the shape that makes it work hardest
// per byte. The count of Err calls must reach the entry's work divided by
// its stride, and it must equal the count recorded in
// testdata/polls.golden: the counts are deterministic, so a poll that is
// dropped, moved out of a loop or added shows up as a diff. Run with
// -update to rewrite the golden after a deliberate change.
func TestPollCounts(t *testing.T) {
	const mb = 1 << 20
	xmark := gen.XMark(1, mb)
	medline := gen.Medline(1, mb)
	// One element per four bytes: the most parse loop iterations per byte.
	tiny := []byte("<r>" + strings.Repeat("<a/>", mb/4) + "</r>")
	var texts [][]byte
	for rest := medline; len(rest) > 0; {
		n := min(4096, len(rest))
		texts, rest = append(texts, rest[:n]), rest[n:]
	}
	engines := map[string]*core.Engine{}
	for name, data := range map[string][]byte{"xmark": xmark, "medline": medline} {
		eng, err := core.BuildContext(context.Background(), data, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = eng
	}
	// 4095 documents, one short of a multiple of search's 256-document
	// stride, so one more counted iteration anywhere adds a poll.
	dp := engines["medline"].Postings()
	snap := search.Snapshot{Docs: map[string]*search.DocPostings{}}
	phraseTF := map[string][]int64{}
	var cands []string
	for i := 0; i < 4095; i++ {
		name := fmt.Sprintf("d%04d", i)
		snap.Docs[name] = dp
		snap.Total += dp.Tokens()
		phraseTF[name] = []int64{1}
		cands = append(cands, name)
	}
	terms, err := search.ParseQuery(`cell "blood cell"`)
	if err != nil {
		t.Fatal(err)
	}
	var fmStats fmindex.BuildStats

	cases := []pollCase{
		{"xmlparse.ParseCtx", 2048, func(ctx context.Context) (int64, error) {
			h := &elemCounter{}
			err := xmlparse.ParseCtx(ctx, tiny, h)
			return h.n, err
		}},
		{"sais.Compute", 1 << 17, func(ctx context.Context) (int64, error) {
			s := make([]int32, len(xmark))
			for i, c := range xmark {
				s[i] = int32(c)
			}
			_, err := sais.Compute(ctx, s, 256)
			return int64(len(s)), err
		}},
		{"fmindex.NewCtx", 1 << 16, func(ctx context.Context) (int64, error) {
			_, err := fmindex.NewCtx(ctx, texts, fmindex.Options{
				Procs: 2, MemoryBudget: 256 << 10, TempDir: t.TempDir(), Stats: &fmStats,
			})
			return int64(len(medline)), err
		}},
		{"build.Document", 2048, func(ctx context.Context) (int64, error) {
			doc, err := build.Document(ctx, xmark, build.Options{
				Procs: 2, MemoryBudget: 1 << 20, TempDir: t.TempDir(),
			})
			if err != nil {
				return 0, err
			}
			return int64(doc.NumNodes()), nil
		}},
		{"search.Candidates", 256, func(ctx context.Context) (int64, error) {
			_, err := search.Candidates(ctx, snap, terms)
			return int64(len(snap.Docs)), err
		}},
		{"search.Rank", 256, func(ctx context.Context) (int64, error) {
			_, err := search.Rank(ctx, snap, terms, cands, phraseTF)
			return int64(len(snap.Docs) + 2*len(cands)), err
		}},
	}
	for _, ev := range []struct {
		strategy, doc, query string
		opts                 xpath.Options
	}{
		{"top-down", "xmark", "//listitem//keyword", xpath.Options{ForceStrategy: xpath.StrategyTopDown}},
		{"bottom-up", "medline", "//AbstractText[contains(., 'cell')]", xpath.Options{ForceStrategy: xpath.StrategyBottomUp}},
		{"spans", "medline", "//MedlineCitation[contains(., 'blood cell')]", xpath.Options{}},
	} {
		q, err := engines[ev.doc].WithQueryOptions(ev.opts).Compile(ev.query)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(q.Strategy(), ev.strategy) {
			t.Fatalf("%s: strategy %q, want %s", ev.query, q.Strategy(), ev.strategy)
		}
		cases = append(cases,
			pollCase{"xpath.CountCtx/" + ev.strategy, 0, func(ctx context.Context) (int64, error) {
				_, err := q.CountCtx(ctx)
				return 0, err
			}},
			pollCase{"xpath.NodesCtx/" + ev.strategy, 0, func(ctx context.Context) (int64, error) {
				_, err := q.NodesCtx(ctx)
				return 0, err
			}},
			pollCase{"xpath.Iter/" + ev.strategy, 0, func(ctx context.Context) (int64, error) {
				it := q.Iter(ctx)
				for _, ok := it.Next(); ok; _, ok = it.Next() {
				}
				return 0, it.Close()
			}},
			pollCase{"xpath.SerializeCtx/" + ev.strategy, 0, func(ctx context.Context) (int64, error) {
				_, err := q.SerializeCtx(ctx, io.Discard)
				return 0, err
			}},
		)
	}

	var got bytes.Buffer
	for _, c := range cases {
		ctx := newCountCtx()
		work, err := c.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		polls := ctx.errs.Load()
		fmt.Fprintf(&got, "%s %d\n", c.name, polls)
		if c.stride > 0 && polls < work/c.stride {
			t.Errorf("%s: %d polls for %d units of work, want at least %d (one per %d)",
				c.name, polls, work, work/c.stride, c.stride)
		}
	}
	if !fmStats.Spilled || fmStats.MergeTasks < 2 {
		t.Errorf("fmindex.NewCtx ran without spill or merge: %+v", fmStats)
	}

	golden := filepath.Join("testdata", "polls.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("poll counts differ from %s (run with -update after a deliberate change):\ngot:\n%swant:\n%s",
			golden, got.Bytes(), want)
	}
}
