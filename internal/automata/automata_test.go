package automata

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// Tests here exercise the automata machinery directly, hand-building the
// Figure 3 automaton for /descendant::listitem/descendant::keyword[child::emph].

const listDoc = `<doc><listitem><keyword>a<emph>x</emph></keyword></listitem><listitem><keyword>plain</keyword></listitem><section><keyword><emph>y</emph></keyword></section></doc>`

func buildFig3(t *testing.T, doc *xmltree.Doc) *Automaton {
	t.Helper()
	f := NewFactory()
	a, err := NewAutomaton(4, f)
	if err != nil {
		t.Fatal(err)
	}
	li := doc.TagID("listitem")
	kw := doc.TagID("keyword")
	em := doc.TagID("emph")
	// q0, {&} -> down1 q1
	a.AddTransition(0, Finite(doc.RootTag()), f.Down1(1))
	// q1: descendant::listitem (exclusive construction)
	a.AddTransition(1, AllBut(li), f.And(f.Down1(1), f.Down2(1)))
	a.AddTransition(1, Finite(li), f.And(f.Down1(2), f.Down2(1)))
	// q2: descendant::keyword[child::emph], marking
	a.AddTransition(2, AllBut(kw), f.And(f.Down1(2), f.Down2(2)))
	a.AddTransition(2, Finite(kw), f.And(f.And(f.Mark, f.And(f.Down1(2), f.Down2(2))), f.Down1(3)))
	a.AddTransition(2, Finite(kw), f.And(f.Not(f.Down1(3)), f.And(f.Down1(2), f.Down2(2))))
	// q3: child::emph filter
	a.AddTransition(3, AllLabels, f.Down2(3))
	a.AddTransition(3, Finite(em), f.True)
	a.SetBottom(1)
	a.SetBottom(2)
	a.Start = 0
	a.Finish()
	return a
}

func TestHandBuiltFig3(t *testing.T) {
	doc, err := xmltree.Parse([]byte(listDoc), xmltree.Options{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	a := buildFig3(t, doc)
	for _, opts := range []Options{{}, {NoJump: true}, {NoMemo: true}, {NoEarly: true}} {
		ev := NewEvaluator(a, doc, Count, opts)
		n, _, _ := ev.Run(context.Background())
		if n != 1 {
			t.Fatalf("opts %+v: count=%d want 1 (only the first keyword has an emph child under a listitem)", opts, n)
		}
		ev2 := NewEvaluator(a, doc, Materialize, opts)
		_, nodes, _ := ev2.Run(context.Background())
		if len(nodes) != 1 || doc.TagName(doc.TagOf(nodes[0])) != "keyword" {
			t.Fatalf("opts %+v: nodes=%v", opts, nodes)
		}
	}
}

func TestFormulaHashConsing(t *testing.T) {
	f := NewFactory()
	a := f.And(f.Down1(1), f.Down2(2))
	b := f.And(f.Down1(1), f.Down2(2))
	if a != b {
		t.Fatal("structurally equal formulas must share a pointer")
	}
	if f.And(f.True, a) != a {
		t.Fatal("And(True, x) != x")
	}
	if f.And(f.False, a) != f.False {
		t.Fatal("And(False, x) != False")
	}
	if f.Or(f.False, a) != a {
		t.Fatal("Or(False, x) != x")
	}
	if f.Not(f.Not(a)) != a {
		t.Fatal("double negation")
	}
	// Or with True must not absorb marked formulas.
	m := f.And(f.Mark, a)
	or := f.Or(f.True, m)
	if or == f.True {
		t.Fatal("Or(True, marked) must not collapse to True")
	}
	if f.Or(f.True, a) != f.True {
		t.Fatal("Or(True, mark-free) should collapse")
	}
}

func TestLabelSets(t *testing.T) {
	s := Finite(1, 5)
	if !s.Contains(1) || !s.Contains(5) || s.Contains(2) {
		t.Fatal("finite set membership")
	}
	c := AllBut(3)
	if c.Contains(3) || !c.Contains(99) {
		t.Fatal("cofinite set membership")
	}
	if !AllLabels.Contains(0) {
		t.Fatal("universal set")
	}
}

func TestMaxStates(t *testing.T) {
	if _, err := NewAutomaton(65, NewFactory()); err == nil {
		t.Fatal("must reject > 64 states")
	}
}

func TestCanMarkClosure(t *testing.T) {
	doc, _ := xmltree.Parse([]byte(listDoc), xmltree.Options{SkipFM: true})
	a := buildFig3(t, doc)
	// q0,q1,q2 can reach a mark; q3 cannot.
	if a.canMark>>0&1 != 1 || a.canMark>>1&1 != 1 || a.canMark>>2&1 != 1 {
		t.Fatalf("canMark=%b", a.canMark)
	}
	if a.canMark>>3&1 != 0 {
		t.Fatalf("filter state must not mark: %b", a.canMark)
	}
}

func TestStatsCounting(t *testing.T) {
	doc, _ := xmltree.Parse([]byte(listDoc), xmltree.Options{SkipFM: true})
	a := buildFig3(t, doc)
	ev := NewEvaluator(a, doc, Count, Options{})
	ev.Run(context.Background())
	if ev.Stats.Visited <= 0 {
		t.Fatal("visited not tracked")
	}
	if ev.Stats.Visited >= int64(doc.NumNodes()) {
		t.Fatalf("jumping should visit < all nodes: %d >= %d", ev.Stats.Visited, doc.NumNodes())
	}
}

func TestEmptyDocRun(t *testing.T) {
	doc, _ := xmltree.Parse([]byte("<a/>"), xmltree.Options{SkipFM: true})
	f := NewFactory()
	a, _ := NewAutomaton(2, f)
	a.AddTransition(0, Finite(doc.RootTag()), f.Down1(1))
	nosuch := AllBut() // matches everything; but transition needs a real tag
	_ = nosuch
	a.AddTransition(1, AllLabels, f.And(f.Down1(1), f.Down2(1)))
	a.SetBottom(1)
	a.Finish()
	ev := NewEvaluator(a, doc, Count, Options{})
	n, _, _ := ev.Run(context.Background())
	if n != 0 {
		t.Fatalf("count=%d", n)
	}
}

// TestNextInSet checks the cursor-cached multi-tag jump against the least
// NextOccurrence of the set's tags below end, from every start position:
// forward, then backward (every query then lies before the cached cursors),
// then forward again, on one evaluator and with two sets sharing a tag.
func TestNextInSet(t *testing.T) {
	doc, err := xmltree.Parse([]byte(listDoc), xmltree.Options{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(buildFig3(t, doc), doc, Count, Options{})
	kw, em, li := doc.TagID("keyword"), doc.TagID("emph"), doc.TagID("listitem")
	sets := [][]int32{{kw, em}, {li, kw}, {em}}
	last := doc.Close(doc.Root())
	check := func(from int) {
		for _, set := range sets {
			for _, end := range []int{last + 1, last / 2, from + 3} {
				want := xmltree.Nil
				for _, tag := range set {
					if p := doc.Tag.NextOccurrence(2*tag, from); p >= 0 && p < end && (want == xmltree.Nil || p < want) {
						want = p
					}
				}
				if got := ev.nextInSet(set, from, end); got != want {
					t.Fatalf("nextInSet(%v, %d, %d) = %d, want %d", set, from, end, got, want)
				}
			}
		}
	}
	for from := 0; from <= last+1; from++ {
		check(from)
	}
	for from := last + 1; from >= 0; from-- {
		check(from)
	}
	for from := 0; from <= last+1; from += 3 {
		check(from)
	}
}

// TestNextInSetMonotone drives nextInSet as runs do: within a run from
// only grows, by skips from one position to hundreds, and each new run
// restarts below the cursors. The sets mix frequent tags, a rare one and
// one with no occurrence, so cursors are refreshed by a step to the next
// occurrence, by a search past several, and at the end of a row. Every
// answer must be the least NextOccurrence of the set's tags below end, and
// every cursor's rank k must select its answer.
func TestNextInSetMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	var open []string
	sb.WriteString("<r>")
	for i := 0; i < 6000; i++ {
		if len(open) > 0 && r.Intn(2) == 0 {
			sb.WriteString("</" + open[len(open)-1] + ">")
			open = open[:len(open)-1]
			continue
		}
		name := []string{"a", "b", "c", "d"}[r.Intn(4)]
		if r.Intn(150) == 0 {
			name = "rare"
		}
		sb.WriteString("<" + name + ">")
		open = append(open, name)
	}
	for len(open) > 0 {
		sb.WriteString("</" + open[len(open)-1] + ">")
		open = open[:len(open)-1]
	}
	sb.WriteString("</r>")
	doc, err := xmltree.Parse([]byte(sb.String()), xmltree.Options{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	absent := doc.AttrsTag()
	if doc.TagCount(absent) != 0 {
		t.Fatal("the attribute tag occurs in a document without attributes")
	}
	a, b, c, d, rare := doc.TagID("a"), doc.TagID("b"), doc.TagID("c"), doc.TagID("d"), doc.TagID("rare")
	sets := [][]int32{{a}, {a, b}, {rare}, {rare, c}, {absent}, {absent, d}, {a, b, c, d}, {b, rare, absent}}
	ev := NewEvaluator(buildFig3(t, doc), doc, Count, Options{})
	last := doc.Close(doc.Root())
	for run := 0; run < 60; run++ {
		from := r.Intn(last / 2)
		maxSkip := []int{2, 8, 64, 600}[run%4]
		for from <= last+1 {
			set := sets[r.Intn(len(sets))]
			end := last + 1
			if r.Intn(3) == 0 {
				end = from + r.Intn(200)
			}
			want := xmltree.Nil
			for _, tag := range set {
				if p := doc.Tag.NextOccurrence(2*tag, from); p >= 0 && p < end && (want == xmltree.Nil || p < want) {
					want = p
				}
			}
			if got := ev.nextInSet(set, from, end); got != want {
				t.Fatalf("run %d: nextInSet(%v, %d, %d) = %d, want %d", run, set, from, end, got, want)
			}
			// The finger: a cursor that answers a position holds its rank
			// in the tag row, so the next refresh can Step from it.
			for _, tag := range set {
				if c := ev.cursors[tag]; c.k >= 0 && doc.Tag.Select(2*tag, c.k) != c.next {
					t.Fatalf("run %d: cursor of tag %d at %d has rank %d, which selects %d",
						run, tag, c.next, c.k, doc.Tag.Select(2*tag, c.k))
				}
			}
			from += 1 + r.Intn(maxSkip)
		}
	}
}

// TestEvaluatorReuse runs one evaluator per mode three times: every run
// returns the same answer and the same Stats, which start from zero.
func TestEvaluatorReuse(t *testing.T) {
	doc, err := xmltree.Parse([]byte(listDoc), xmltree.Options{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	a := buildFig3(t, doc)
	for _, mode := range []Mode{Count, Materialize} {
		ev := NewEvaluator(a, doc, mode, Options{})
		n0, nodes0, _ := ev.Run(context.Background())
		stats0 := ev.Stats
		for i := 0; i < 2; i++ {
			n, nodes, _ := ev.Run(context.Background())
			if n != n0 || len(nodes) != len(nodes0) || ev.Stats != stats0 {
				t.Fatalf("mode %d run %d: %d %v %+v, first run %d %v %+v", mode, i+2, n, nodes, ev.Stats, n0, nodes0, stats0)
			}
		}
	}
}
