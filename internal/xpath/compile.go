package xpath

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/xmltree"
)

// Normalize exposes the AST normalization for baseline evaluators that
// share the query fragment (package dom, package stream).
func Normalize(path *Path) (*Path, error) { return normalize(path) }

// normalize rewrites the AST: attribute steps are desugared into the model's
// @-encoding (Section 2), self steps are fused into their predecessor, and
// the same rewriting is applied to paths inside predicates.
func normalize(path *Path) (*Path, error) {
	out := &Path{}
	for _, st := range path.Steps {
		// Normalize filter sub-paths first.
		var filters []Expr
		for _, f := range st.Filters {
			nf, err := normalizeExpr(f)
			if err != nil {
				return nil, err
			}
			filters = append(filters, nf)
		}
		switch st.Axis {
		case AxisAttribute:
			out.Steps = append(out.Steps,
				&Step{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: xmltree.AttrsLabel}},
				&Step{Axis: AxisChild, Test: st.Test, Filters: filters, underAttr: true})
		case AxisSelf:
			if st.Test.Kind != TestNode {
				return nil, fmt.Errorf("xpath: self axis with a %s test is not supported outside predicates", st.Test)
			}
			if len(out.Steps) == 0 {
				if len(filters) > 0 {
					return nil, fmt.Errorf("xpath: predicate on the root context is not supported")
				}
				continue
			}
			prev := out.Steps[len(out.Steps)-1]
			prev.Filters = append(prev.Filters, filters...)
		default:
			out.Steps = append(out.Steps, &Step{Axis: st.Axis, Test: st.Test, Filters: filters, underAttr: st.underAttr})
		}
	}
	if len(out.Steps) == 0 {
		return nil, fmt.Errorf("xpath: query selects nothing")
	}
	return out, nil
}

func normalizeExpr(e Expr) (Expr, error) {
	switch x := e.(type) {
	case *AndExpr:
		l, err := normalizeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := normalizeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &AndExpr{L: l, R: r}, nil
	case *OrExpr:
		l, err := normalizeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := normalizeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &OrExpr{L: l, R: r}, nil
	case *NotExpr:
		inner, err := normalizeExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: inner}, nil
	case *PathExpr:
		p, err := normalizeRel(x.Path)
		if err != nil {
			return nil, err
		}
		// Canonicalize "path[textpred(.)]" into "textpred(path)": the forms
		// are equivalent and the latter is what the bottom-up planner
		// recognizes (e.g. M05's ./LastName[starts-with(., 'Bar')]).
		last := p.Steps[len(p.Steps)-1]
		if len(last.Filters) == 1 {
			if te, ok := last.Filters[0].(*TextExpr); ok && te.Target == nil {
				stripped := *last
				stripped.Filters = nil
				steps := append(append([]*Step{}, p.Steps[:len(p.Steps)-1]...), &stripped)
				return &TextExpr{Op: te.Op, Target: &Path{Steps: steps}, Literal: te.Literal, Func: te.Func}, nil
			}
		}
		return &PathExpr{Path: p}, nil
	case *TextExpr:
		if x.Target == nil {
			return x, nil
		}
		p, err := normalizeRel(x.Target)
		if err != nil {
			return nil, err
		}
		return &TextExpr{Op: x.Op, Target: p, Literal: x.Literal, Func: x.Func}, nil
	}
	return nil, fmt.Errorf("xpath: unknown expression %T", e)
}

// normalizeRel normalizes a relative (predicate) path; a leading self step
// is dropped.
func normalizeRel(path *Path) (*Path, error) {
	n, err := normalize(&Path{Steps: path.Steps})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// compiler turns a normalized AST into a marking automaton bound to a
// document (Section 5.2: the automaton is "isomorphic" to the query).
type compiler struct {
	doc  *xmltree.Doc
	f    *automata.Factory
	opts Options

	states []stateDef

	// spans holds the occurrence-span table of each contains literal on a
	// multi-text target, shared by every predicate of the query with that
	// literal and by its bottom-up plan.
	spans map[string]*spanTable

	// arm is the slowest arm makePred has taken (armNone without text
	// predicates); Strategy reports it.
	arm int

	// mayOvercount is set when the construction cannot guarantee disjoint
	// result values (descendant step followed by following-sibling step);
	// counting then falls back to materialization.
	mayOvercount bool
}

type stateDef struct {
	trans  []automata.Transition
	bottom bool
}

func (c *compiler) newState(bottom bool) int {
	c.states = append(c.states, stateDef{bottom: bottom})
	return len(c.states) - 1
}

func (c *compiler) addTrans(q int, guard automata.LabelSet, phi *automata.Formula) {
	c.states[q].trans = append(c.states[q].trans, automata.Transition{Guard: guard, Phi: phi})
}

// guardFor maps a node test to a label set, following the paper's
// convention that "*" is the co-finite set L - {@, #, %, &} (Section 5.3).
func (c *compiler) guardFor(t NodeTest) (automata.LabelSet, bool) {
	d := c.doc
	switch t.Kind {
	case TestName:
		id := d.TagID(t.Name)
		if id < 0 {
			return automata.LabelSet{}, false // tag absent: no match possible
		}
		return automata.Finite(id), true
	case TestStar:
		return automata.AllBut(d.TextTag(), d.AttrsTag(), d.AttrValTag(), d.RootTag()), true
	case TestText:
		return automata.Finite(d.TextTag()), true
	case TestNode:
		return automata.AllBut(d.AttrsTag(), d.AttrValTag(), d.RootTag()), true
	}
	return automata.LabelSet{}, false
}

// compile builds the automaton for a normalized main path.
func (c *compiler) compile(path *Path) (*automata.Automaton, error) {
	q0 := c.newState(false)
	first, err := c.compileSteps(path.Steps, true, nil)
	if err != nil {
		return nil, err
	}
	entry := c.f.Down1(first)
	if path.Steps[0].Axis == AxisFollowingSibling {
		return nil, fmt.Errorf("xpath: following-sibling cannot be the first step")
	}
	c.addTrans(q0, automata.Finite(c.doc.RootTag()), entry)

	a, err := automata.NewAutomaton(len(c.states), c.f)
	if err != nil {
		return nil, err
	}
	a.Start = q0
	for q, def := range c.states {
		if def.bottom {
			a.SetBottom(q)
		}
		for _, t := range def.trans {
			a.AddTransition(q, t.Guard, t.Phi)
		}
	}
	a.Finish()
	return a, nil
}

// compileSteps allocates one state per step and wires the transitions.
//
// For the main (marking) path, per-state transitions are made mutually
// exclusive so that result counters never add the same mark twice
// (Section 5.5.3's disjointness guarantee): the neutral loop is guarded by
// the complement of the match guard, and a node matching the test takes
// either the filter-true transition (which continues the query but does not
// re-descend into territory the next state already covers) or the
// filter-false transition (which behaves like the loop). The inexact
// combinations — a following-sibling step after a descendant step, and a
// descendant step whose child-continuation is later followed by another
// descendant step — are flagged so counting falls back to materialization
// with set semantics.
//
// Existence paths inside predicates only need truth, so they keep the
// simpler overlapping construction with disjunctive (descendant) or
// right-linear (child/sibling) recursion; those states are not in B.
func (c *compiler) compileSteps(steps []*Step, marking bool, lastExtra *automata.Formula) (int, error) {
	ids := make([]int, len(steps))
	for i := range steps {
		ids[i] = c.newState(marking)
	}
	for i, st := range steps {
		q := ids[i]
		guard, matchable := c.guardFor(st.Test)

		// The neutral self-recursion formula for this state.
		var loop *automata.Formula
		switch st.Axis {
		case AxisChild, AxisFollowingSibling:
			loop = c.f.Down2(q)
		case AxisDescendant:
			if marking {
				loop = c.f.And(c.f.Down1(q), c.f.Down2(q))
			} else {
				loop = c.f.Or(c.f.Down1(q), c.f.Down2(q))
			}
		default:
			return 0, fmt.Errorf("xpath: unsupported axis %s after normalization", st.Axis)
		}

		if !marking {
			// Existence path: full loop plus additive match transition.
			c.addTrans(q, automata.AllLabels, loop)
			if !matchable {
				continue
			}
			var phi *automata.Formula
			if i+1 < len(steps) {
				var err error
				phi, err = c.continuation(steps[i+1], ids[i+1])
				if err != nil {
					return 0, err
				}
			} else if lastExtra != nil {
				phi = lastExtra
			} else {
				phi = c.f.True
			}
			for _, flt := range st.Filters {
				fphi, err := c.compileExpr(flt, st)
				if err != nil {
					return 0, err
				}
				phi = c.f.And(phi, fphi)
			}
			c.addTrans(q, guard, phi)
			continue
		}

		// Marking path: loop on the complement of the match guard.
		if !matchable {
			c.addTrans(q, automata.AllLabels, loop)
			continue
		}
		c.addTrans(q, complement(guard), loop)

		// Continuation and self-continuation at a matching node.
		var cont *automata.Formula
		contFollSib := false
		if i+1 < len(steps) {
			var err error
			cont, err = c.continuation(steps[i+1], ids[i+1])
			if err != nil {
				return 0, err
			}
			contFollSib = steps[i+1].Axis == AxisFollowingSibling
		} else {
			cont = c.f.Mark
		}
		var selfCont *automata.Formula
		switch st.Axis {
		case AxisDescendant:
			switch {
			case cont == c.f.Mark:
				// Continue everywhere: node, subtree and rest are disjoint.
				selfCont = c.f.And(c.f.Down1(q), c.f.Down2(q))
			case contFollSib:
				// The next state only scans the top-level chain after this
				// node, so deeper matches in the rest-region still need q;
				// the resulting value overlap makes counters inexact.
				selfCont = c.f.And(c.f.Down1(q), c.f.Down2(q))
				c.mayOvercount = true
			case i+1 < len(steps) && steps[i+1].Axis == AxisDescendant:
				// The next (descendant) state covers the whole subtree;
				// only the rest-region needs q. Nested matches would hand
				// the next state the same territory twice.
				selfCont = c.f.Down2(q)
			default:
				// Child-axis continuation: every result is attributed to
				// its unique parent's spawn, so recursing below nested
				// matches stays disjoint — and is required for coverage.
				selfCont = c.f.And(c.f.Down1(q), c.f.Down2(q))
				// Disjointness holds only while the remaining steps fix the
				// result's depth relative to the spawn (child/sibling axes).
				// A later descendant step can reach the same result from
				// child-spawns at several nesting depths of this state's
				// matches (e.g. //a/b//c with nested a), so the counters
				// overlap exactly like the following-sibling case above.
				for k := i + 2; k < len(steps); k++ {
					if steps[k].Axis == AxisDescendant {
						c.mayOvercount = true
						break
					}
				}
			}
		case AxisChild, AxisFollowingSibling:
			if contFollSib {
				// The next state scans the remainder of this very chain, so
				// later matches of q are already covered.
				selfCont = c.f.True
			} else {
				selfCont = c.f.Down2(q)
			}
		}

		filter := c.f.True
		for _, flt := range st.Filters {
			fphi, err := c.compileExpr(flt, st)
			if err != nil {
				return 0, err
			}
			filter = c.f.And(filter, fphi)
		}
		// Filter-true transition. The shape Mark AND (down1 q AND down2 q)
		// of an unfiltered final descendant step is what the collector
		// analysis (lazy result sets, Section 5.5.4) recognizes.
		c.addTrans(q, guard, c.f.And(c.f.And(cont, selfCont), filter))
		// Filter-false transition keeps the search alive past the node.
		if filter != c.f.True {
			c.addTrans(q, guard, c.f.And(c.f.Not(filter), loop))
		}
	}
	return ids[0], nil
}

// continuation returns the formula that launches the state of the next step
// from a matching node.
func (c *compiler) continuation(next *Step, nextID int) (*automata.Formula, error) {
	switch next.Axis {
	case AxisChild, AxisDescendant:
		return c.f.Down1(nextID), nil
	case AxisFollowingSibling:
		return c.f.Down2(nextID), nil
	}
	return nil, fmt.Errorf("xpath: unsupported axis %s", next.Axis)
}

func complement(s automata.LabelSet) automata.LabelSet {
	return automata.LabelSet{Cofinite: !s.Cofinite, Tags: s.Tags}
}

// compileExpr builds the formula for a predicate evaluated at a node whose
// step is carrier (used to type dot-targets for text predicates).
func (c *compiler) compileExpr(e Expr, carrier *Step) (*automata.Formula, error) {
	switch x := e.(type) {
	case *AndExpr:
		l, err := c.compileExpr(x.L, carrier)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.R, carrier)
		if err != nil {
			return nil, err
		}
		return c.f.And(l, r), nil
	case *OrExpr:
		l, err := c.compileExpr(x.L, carrier)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.R, carrier)
		if err != nil {
			return nil, err
		}
		return c.f.Or(l, r), nil
	case *NotExpr:
		inner, err := c.compileExpr(x.E, carrier)
		if err != nil {
			return nil, err
		}
		return c.f.Not(inner), nil
	case *PathExpr:
		if !pathNeedsNav(x.Path) {
			return c.compilePathFormula(x.Path, nil)
		}
	case *TextExpr:
		if x.Target == nil {
			return c.f.Pred(x.String(), c.pred(x, carrier)), nil
		}
		if !pathNeedsNav(x.Target) {
			last := x.Target.Steps[len(x.Target.Steps)-1]
			return c.compilePathFormula(x.Target, c.f.Pred(x.String(), c.pred(x, last)))
		}
	default:
		return nil, fmt.Errorf("xpath: unknown expression %T", e)
	}
	// A predicate path with a backward (or following) step becomes a
	// built-in predicate, its compiled filter, which walks the document from
	// the carrier node; both TopDownRun and the bottom-up verifier then see
	// it as an ordinary node test (see nav.go).
	test, err := c.filter(e, carrier)
	if err != nil {
		return nil, err
	}
	return c.f.Pred(e.String(), test), nil
}

// compilePass compiles st's filters, a conjunction, into st.pass, once:
// Compile runs it on every step of the main path, and filter on every step
// of a predicate path, so a query's filters are compiled, and its extension
// functions validated, before any plan is built.
func (c *compiler) compilePass(st *Step) (err error) {
	if st.pass == nil && len(st.Filters) > 0 {
		e := st.Filters[0]
		for _, f := range st.Filters[1:] {
			e = &AndExpr{L: e, R: f}
		}
		st.pass, err = c.filter(e, st)
	}
	return err
}

// filter compiles predicate e, evaluated at a node of step carrier, into a
// node test for the evaluators that do not run the automaton: the streaming
// iterator, the navigational steps and the backward-axis predicate paths.
// Text predicates are makePred's, shared with the automaton (pred); a path
// is a navigational existence check over steps whose filters are compiled
// here too.
func (c *compiler) filter(e Expr, carrier *Step) (func(int) bool, error) {
	switch x := e.(type) {
	case *AndExpr:
		l, err := c.filter(x.L, carrier)
		if err != nil {
			return nil, err
		}
		r, err := c.filter(x.R, carrier)
		if err != nil {
			return nil, err
		}
		return func(n int) bool { return l(n) && r(n) }, nil
	case *OrExpr:
		l, err := c.filter(x.L, carrier)
		if err != nil {
			return nil, err
		}
		r, err := c.filter(x.R, carrier)
		if err != nil {
			return nil, err
		}
		return func(n int) bool { return l(n) || r(n) }, nil
	case *NotExpr:
		inner, err := c.filter(x.E, carrier)
		if err != nil {
			return nil, err
		}
		return func(n int) bool { return !inner(n) }, nil
	case *PathExpr:
		return c.exists(x.Path, nil)
	case *TextExpr:
		if x.Op == OpCustom && c.opts.CustomMatchSets[x.Func] == nil {
			return nil, fmt.Errorf("xpath: unknown function %q", x.Func)
		}
		if x.Target == nil {
			return c.pred(x, carrier), nil
		}
		return c.exists(x.Target, c.pred(x, x.Target.Steps[len(x.Target.Steps)-1]))
	}
	return nil, fmt.Errorf("xpath: unknown expression %T", e)
}

// exists compiles a relative path into the test "the path selects a node
// from here that satisfies last" (any node when last is nil).
func (c *compiler) exists(p *Path, last func(int) bool) (func(int) bool, error) {
	for _, st := range p.Steps {
		if err := c.compilePass(st); err != nil {
			return nil, err
		}
	}
	d, steps := c.doc, p.Steps
	miss := func(int) bool { return false }
	if last != nil {
		miss = func(m int) bool { return !last(m) }
	}
	return func(x int) bool { return !navWalkPath(d, x, steps, miss) }, nil
}

// compilePathFormula compiles an existence path inside a predicate and
// returns the formula contribution at the carrier node.
func (c *compiler) compilePathFormula(p *Path, lastExtra *automata.Formula) (*automata.Formula, error) {
	first, err := c.compileSteps(p.Steps, false, lastExtra)
	if err != nil {
		return nil, err
	}
	switch p.Steps[0].Axis {
	case AxisChild, AxisDescendant:
		return c.f.Down1(first), nil
	case AxisFollowingSibling:
		return c.f.Down2(first), nil
	}
	return nil, fmt.Errorf("xpath: unsupported predicate path axis %s", p.Steps[0].Axis)
}
