package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// midRunCtx is cancelled right after its second Err call, which reports
// "not cancelled": the entry point's upfront check and the evaluator's pass,
// and the run that starts is stopped by its own poll.
type midRunCtx struct {
	context.Context
	done chan struct{}
	errs int
}

func newMidRunCtx() context.Context {
	return &midRunCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *midRunCtx) Done() <-chan struct{} { return c.done }

func (c *midRunCtx) Err() error {
	switch c.errs++; {
	case c.errs < 2:
		return nil
	case c.errs == 2:
		close(c.done)
		return nil
	}
	return context.Canceled
}

// reuseAnswer is what one compiled query must answer.
type reuseAnswer struct {
	count     int64
	preorders []int
	xml       []byte
}

// check runs Count, Nodes, Exists and Serialize of q, each under a context
// from ctx, and compares the answers that completed with want. A cancelled
// call must fail with context.Canceled, never with a wrong answer; it adds
// one to cancelled.
func (want *reuseAnswer) check(eng *core.Engine, q *xpath.Query, ctx func() context.Context, cancelled *atomic.Int64) error {
	ok := func(err error) (bool, error) {
		if err == nil {
			return true, nil
		}
		if errors.Is(err, context.Canceled) {
			cancelled.Add(1)
			return false, nil
		}
		return false, err
	}
	n, err := q.CountCtx(ctx())
	if done, err := ok(err); err != nil || done && n != want.count {
		return fmt.Errorf("count %d (%v), want %d", n, err, want.count)
	}
	nodes, err := q.NodesCtx(ctx())
	if done, err := ok(err); err != nil || done && !slices.Equal(toPreorders(eng, nodes), want.preorders) {
		return fmt.Errorf("nodes %d (%v), want %d", len(nodes), err, len(want.preorders))
	}
	exists, err := q.Exists(ctx())
	if done, err := ok(err); err != nil || done && exists != (want.count > 0) {
		return fmt.Errorf("exists %v (%v), want %v", exists, err, want.count > 0)
	}
	var buf bytes.Buffer
	_, err = q.SerializeCtx(ctx(), &buf)
	if done, err := ok(err); err != nil || done && !bytes.Equal(buf.Bytes(), want.xml) {
		return fmt.Errorf("serialization of %d bytes (%v), want %d", buf.Len(), err, len(want.xml))
	}
	return nil
}

// TestQueryReuseUnderCancel runs compiled queries of every strategy from 8
// goroutines at once, Count, Nodes, Exists and Serialize each, with every
// third context cancelled mid-run. Runs that complete must answer like the
// DOM; cancelled ones must report context.Canceled. Afterwards every query's
// sequential answers still equal the DOM's: an evaluator whose run was
// cancelled never goes back to its query's pool. Run it under -race.
func TestQueryReuseUnderCancel(t *testing.T) {
	data := gen.XMark(1, suiteSize)
	eng, tree := buildSuite(t, data, core.Config{SampleRate: 4})
	srcs := []string{
		bench.XMarkQueries[3].Query,  // X04: collector jumps
		bench.XMarkQueries[9].Query,  // X10: negated filter
		bench.XMarkQueries[10].Query, // X11: disjunctive filters
		bench.XMarkQueries[11].Query, // X12
		"//keyword/ancestor::listitem",
		`//listitem[.//keyword[contains(., "e")]]`,
	}
	type compiled struct {
		id   string
		q    *xpath.Query
		want *reuseAnswer
	}
	var qs []compiled
	for _, src := range srcs {
		nodes, err := tree.Eval(src)
		if err != nil {
			t.Fatal(src, err)
		}
		if len(nodes) == 0 {
			t.Fatalf("%s selects nothing", src)
		}
		want := &reuseAnswer{count: int64(len(nodes))}
		var xml bytes.Buffer
		for _, n := range nodes {
			want.preorders = append(want.preorders, n.Order)
			n.Serialize(&xml)
			xml.WriteByte('\n')
		}
		want.xml = xml.Bytes()
		for _, strat := range forcedStrategies {
			q, err := eng.WithQueryOptions(xpath.Options{ForceStrategy: strat}).Compile(src)
			if err != nil {
				t.Fatal(src, err)
			}
			qs = append(qs, compiled{fmt.Sprintf("%s %s (%s)", src, strat, q.Strategy()), q, want})
		}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	var cancelled atomic.Int64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for k, c := range qs {
					ctx := context.Background
					if (g+i+k)%3 == 0 {
						ctx = newMidRunCtx
					}
					if err := c.want.check(eng, c.q, ctx, &cancelled); err != nil {
						errs <- fmt.Errorf("goroutine %d, %s: %v", g, c.id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cancelled.Load() == 0 {
		t.Error("no call was cancelled")
	}
	t.Logf("%d calls cancelled", cancelled.Load())
	cancelled.Store(0)
	for _, c := range qs {
		if err := c.want.check(eng, c.q, context.Background, &cancelled); err != nil {
			t.Errorf("after the concurrent runs, %s: %v", c.id, err)
		}
	}
}
