package xpath

// Navigational evaluation of the axes the downward marking automaton cannot
// express: parent, ancestor, ancestor-or-self, preceding-sibling, preceding
// and following. The balanced-parentheses structure answers every backward
// move in constant-or-log time (Parent/Enclose, PrevSibling/FindOpen), which
// is exactly the paper's argument for why a BP tree needs no parent
// pointers; this file turns those primitives into axis enumerators.
//
// Backward steps reach the evaluator two ways:
//
//   - A backward step on the MAIN path splits the query: the longest leading
//     run of automaton axes (child, descendant, following-sibling) is
//     evaluated by the usual planner (TopDownRun or BottomUpRun), and the
//     remaining steps are applied as navigational set transformations
//     (Query.post, see navApplyStep). Name and text() tests turn the
//     preceding/following axes into forward scans of the tag sequence
//     (Tag.NextOccurrence), so their cost is output-sensitive.
//
//   - A backward step inside a PREDICATE path compiles into an automata
//     Pred formula whose closure walks the document from the carrier node
//     (compileExpr), so both TopDownRun and the bottom-up verifier see the
//     predicate as an ordinary node test.
//
// Either way the steps' filters are not interpreted here: Compile has turned
// each into a node test (Step.pass, see compiler.filter) whose text
// predicates are the ones the automaton runs, with the same match sets,
// occurrence spans or naive string values.
//
// Semantics are defined on the document model tree (synthetic & root,
// @/%-encoded attributes, # text leaves) exactly as in the dom oracle:
// axes navigate the model tree and node tests do the filtering.

import (
	"context"
	"sort"

	"repro/internal/xmltree"
)

// automatonAxis reports whether the marking automaton's two down-moves can
// express the axis (Section 5.2's fragment).
func automatonAxis(a Axis) bool {
	switch a {
	case AxisChild, AxisDescendant, AxisSelf, AxisAttribute, AxisFollowingSibling:
		return true
	}
	return false
}

// pathNeedsNav reports whether a normalized relative path contains a step
// outside the automaton fragment (nested filter paths are checked by their
// own compilation, not here).
func pathNeedsNav(p *Path) bool {
	for _, st := range p.Steps {
		if !automatonAxis(st.Axis) {
			return true
		}
	}
	return false
}

// navJumpTag returns the tag to jump on when the node test selects a single
// label (a name or text()), enabling Tag.NextOccurrence scans for the
// order-based axes. A negative tag with ok=true means the label does not
// occur, so the step matches nothing.
func navJumpTag(d *xmltree.Doc, t NodeTest) (int32, bool) {
	switch t.Kind {
	case TestName:
		return d.TagID(t.Name), true
	case TestText:
		return d.TextTag(), true
	}
	return 0, false
}

// navCollect enumerates the nodes reached from x through one step's axis
// that satisfy its node test; filters are the caller's concern. Emission
// order is unspecified (callers deduplicate and sort). The visitor returns
// false to stop the enumeration, which turns existence checks (e.g.
// not(preceding::a)) into early-exit scans.
func navCollect(d *xmltree.Doc, x int, st *Step, emit func(int) bool) {
	switch st.Axis {
	case AxisChild:
		for c := d.FirstChild(x); c != xmltree.Nil; c = d.NextSibling(c) {
			if matchesTest(d, c, st.Test) && !emit(c) {
				return
			}
		}
	case AxisDescendant:
		navDescendants(d, x, st.Test, emit)
	case AxisDescendantOrSelf:
		if matchesTest(d, x, st.Test) && !emit(x) {
			return
		}
		navDescendants(d, x, st.Test, emit)
	case AxisSelf:
		if matchesTest(d, x, st.Test) {
			emit(x)
		}
	case AxisFollowingSibling:
		for s := d.NextSibling(x); s != xmltree.Nil; s = d.NextSibling(s) {
			if matchesTest(d, s, st.Test) && !emit(s) {
				return
			}
		}
	case AxisPrecedingSibling:
		for s := d.PrevSibling(x); s != xmltree.Nil; s = d.PrevSibling(s) {
			if matchesTest(d, s, st.Test) && !emit(s) {
				return
			}
		}
	case AxisParent:
		if pa := d.Parent(x); pa != xmltree.Nil && matchesTest(d, pa, st.Test) {
			emit(pa)
		}
	case AxisAncestor:
		for a := d.Parent(x); a != xmltree.Nil; a = d.Parent(a) {
			if matchesTest(d, a, st.Test) && !emit(a) {
				return
			}
		}
	case AxisAncestorOrSelf:
		for a := x; a != xmltree.Nil; a = d.Parent(a) {
			if matchesTest(d, a, st.Test) && !emit(a) {
				return
			}
		}
	case AxisFollowing:
		// Everything after Close(x): all opens past the closing parenthesis,
		// i.e. nodes following x in document order minus its descendants.
		if tag, ok := navJumpTag(d, st.Test); ok {
			if tag < 0 {
				return
			}
			for q := d.Tag.NextOccurrence(2*tag, d.Close(x)+1); q >= 0; q = d.Tag.NextOccurrence(2*tag, q+1) {
				if !emit(q) {
					return
				}
			}
			return
		}
		for k, n := d.Preorder(x)+d.SubtreeSize(x), d.NumNodes(); k < n; k++ {
			if c := d.NodeAtPreorder(k); matchesTest(d, c, st.Test) && !emit(c) {
				return
			}
		}
	case AxisPreceding:
		// Everything opening before x that does not enclose it: nodes
		// preceding x in document order minus its ancestors.
		if tag, ok := navJumpTag(d, st.Test); ok {
			if tag < 0 {
				return
			}
			for q := d.Tag.NextOccurrence(2*tag, 0); q >= 0 && q < x; q = d.Tag.NextOccurrence(2*tag, q+1) {
				if !d.IsAncestor(q, x) && !emit(q) {
					return
				}
			}
			return
		}
		for k, n := 0, d.Preorder(x); k < n; k++ {
			c := d.NodeAtPreorder(k)
			if !d.IsAncestor(c, x) && matchesTest(d, c, st.Test) && !emit(c) {
				return
			}
		}
	}
}

// navDescendants enumerates the proper descendants of x matching the test,
// jumping through the tag sequence when the test names a single label.
func navDescendants(d *xmltree.Doc, x int, t NodeTest, emit func(int) bool) {
	if tag, ok := navJumpTag(d, t); ok {
		if tag < 0 {
			return
		}
		end := d.Close(x)
		for q := d.Tag.NextOccurrence(2*tag, x+1); q >= 0 && q < end; q = d.Tag.NextOccurrence(2*tag, q+1) {
			if !emit(q) {
				return
			}
		}
		return
	}
	lo := d.Preorder(x)
	for k, n := lo+1, lo+d.SubtreeSize(x); k < n; k++ {
		if c := d.NodeAtPreorder(k); matchesTest(d, c, t) && !emit(c) {
			return
		}
	}
}

// navWalkPath visits the nodes selected by the relative path from x,
// applying each step's compiled filters (Step.pass); the visitor returns
// false to stop the walk, and navWalkPath then returns false too.
func navWalkPath(d *xmltree.Doc, x int, steps []*Step, visit func(int) bool) bool {
	if len(steps) == 0 {
		return visit(x)
	}
	st, cont := steps[0], true
	navCollect(d, x, st, func(m int) bool {
		if st.pass == nil || st.pass(m) {
			cont = navWalkPath(d, m, steps[1:], visit)
		}
		return cont
	})
	return cont
}

// navApplyStep applies one location step to a sorted node set, returning
// the distinct matching nodes sorted by position (document order). Filter
// verdicts are memoized per target node, so a node reachable from many
// context nodes is tested once. The order-based axes collapse to a single
// context node instead of one scan per context: the union of preceding::
// over a set is preceding:: of its largest member (y precedes some x in the
// set iff Close(y) < max(set)), and the union of following:: is
// following:: of the member whose closing parenthesis is smallest.
// Cancellation is polled between enumerated target nodes, which covers the
// expensive part of a step: the per-target filter evaluations.
func navApplyStep(ctx context.Context, d *xmltree.Doc, cur []int, st *Step) ([]int, error) {
	// Entry check: cancellation that arrived while the previous pipeline
	// stage was finishing is honored here even when this step emits fewer
	// nodes than the polling interval.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(cur) > 1 {
		switch st.Axis {
		case AxisPreceding:
			cur = cur[len(cur)-1:]
		case AxisFollowing:
			best, bc := cur[0], d.Close(cur[0])
			// No poll: one O(1) Close lookup per input node, bracketed by the entry ctxErr and the per-target poll below
			for _, x := range cur[1:] {
				if c := d.Close(x); c < bc {
					best, bc = x, c
				}
			}
			cur = []int{best}
		}
	}
	done := ctxDone(ctx)
	cancelled := false
	seen := 0
	decided := map[int]bool{}
	var out []int
	for _, x := range cur {
		navCollect(d, x, st, func(m int) bool {
			seen++
			if done != nil && seen&255 == 0 {
				select {
				case <-done:
					cancelled = true
					return false
				default:
				}
			}
			if _, ok := decided[m]; ok {
				return true
			}
			pass := st.pass == nil || st.pass(m)
			decided[m] = pass
			if pass {
				out = append(out, m)
			}
			return true
		})
		if cancelled {
			return nil, ctx.Err()
		}
	}
	sort.Ints(out)
	return out, nil
}
