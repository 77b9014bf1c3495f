package automata_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// TestOutcomeTable checks the outcome tables of compiled transitions on
// the 64 KB corpora, in both modes:
//   - for X01-X17 and T01-T05, every stored outcome equals one rebuilt from
//     its key, and answers and Stats equal a NoMemo run, which stores nothing;
//   - on M01-M11, the instructions with a predicate atom store nothing;
//   - a query whose instruction reads more down-states than a key holds
//     equals the DOM and stores nothing for that instruction.
func TestOutcomeTable(t *testing.T) {
	const size = 64 << 10
	type query = struct{ ID, Query string }
	var wide []string
	for _, tag := range strings.Fields("location quantity name payment description shipping incategory mailbox mail from to date text keyword") {
		wide = append(wide, ".//"+tag)
	}
	var medline []query
	for _, q := range bench.MedlineQueries {
		medline = append(medline, query{q.ID, q.Query})
	}
	for _, c := range []struct {
		data    []byte
		queries []query
		want    func(automata.OutcomeCheck) error
	}{
		{gen.XMark(1, size), bench.XMarkQueries, nil},
		{gen.Treebank(4, size), bench.TreebankQueries, nil},
		{gen.Medline(5, size), medline, func(c automata.OutcomeCheck) error {
			if c.Pred == 0 {
				return fmt.Errorf("no instruction with a predicate atom")
			}
			return nil
		}},
		{gen.XMark(1, size), []query{{"wide", "//item[" + strings.Join(wide, " and ") + "]/name"}}, func(c automata.OutcomeCheck) error {
			if c.Wide == 0 {
				return fmt.Errorf("no instruction reads more than %d down-states", automata.MaxOutcomeBits)
			}
			return nil
		}},
	} {
		eng, err := core.BuildContext(context.Background(), c.data, core.Config{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng = eng.WithQueryOptions(xpath.Options{ForceStrategy: xpath.StrategyTopDown})
		tree, err := dom.Parse(c.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range c.queries {
			cq, err := eng.Compile(q.Query)
			if err != nil {
				t.Fatal(q.ID, err)
			}
			if cq.Automaton() == nil {
				t.Fatalf("%s: strategy %s, want the automaton", q.ID, cq.Strategy())
			}
			n, _ := cq.CountCtx(context.Background())
			if want, err := tree.Eval(q.Query); err != nil || int(n) != len(want) {
				t.Fatalf("%s: count %d, DOM %d (%v)", q.ID, n, len(want), err)
			}
			for _, mode := range []automata.Mode{automata.Count, automata.Materialize} {
				ev := automata.NewEvaluator(cq.Automaton(), eng.Doc, mode, automata.Options{})
				ref := automata.NewEvaluator(cq.Automaton(), eng.Doc, mode, automata.Options{NoMemo: true})
				n, nodes, _ := ev.Run(context.Background())
				refN, refNodes, _ := ref.Run(context.Background())
				if n != refN || !slices.Equal(nodes, refNodes) || ev.Stats != ref.Stats {
					t.Fatalf("%s mode %d: %d %d nodes %+v, NoMemo %d %d nodes %+v", q.ID, mode, n, len(nodes), ev.Stats, refN, len(refNodes), ref.Stats)
				}
				got, err := automata.CheckOutcomes(ev)
				if err != nil {
					t.Fatalf("%s mode %d: %v", q.ID, mode, err)
				}
				if c.want != nil {
					if err := c.want(got); err != nil {
						t.Errorf("%s mode %d: %v (%+v)", q.ID, mode, err, got)
					}
				} else if got.Stored == 0 || got.Pred != 0 || got.Wide != 0 {
					t.Errorf("%s mode %d: %+v, want stored outcomes and no predicate or wide instruction", q.ID, mode, got)
				}
			}
		}
	}
}
