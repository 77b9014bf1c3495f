package xpath

import (
	"context"
	"sort"

	"repro/internal/xmltree"
)

// buPlan is a BottomUpRun plan (Section 5.4.2): for queries of the shape
//
//	/axis::step/.../axis::step[text-predicate]
//
// the text index produces the matching texts, each match is climbed up
// through the predicate's downward path to the candidate result nodes, and
// the candidates' paths to the root are verified against the main path.
// Shared ancestors are verified once via memoization, which plays the role
// of the shift-reduce stop-at-LCA rule of Figure 6.
type buPlan struct {
	doc       *xmltree.Doc
	mainSteps []*Step // the k main steps; result nodes match the last one
	downChain []dstep // from result node down to the value leaf
	leafTag   int32

	// match is the text predicate's match set, shared with the predicate
	// makePred built for it: the set is computed once per compiled query,
	// whichever evaluations read it (a cached query served concurrently
	// must not repeat the FM locate or the scan, which dominate bottom-up
	// cost).
	match *textMatch

	// spans is set when the predicate is contains(., lit) on a target whose
	// string value is not a single text: the candidates are then the
	// ancestors of the occurrence spans' LCAs (spans.go), and leafTag,
	// downChain and match are unused.
	spans *spanTable
}

// dstep is one downward hop of the predicate path.
type dstep struct {
	axis Axis
	test NodeTest
	leaf bool // the virtual hop onto the text/attribute-value leaf
}

// buildBottomUpPlan inspects the normalized query (or, for queries with
// backward steps, its downward prefix — Compile splits the path and applies
// the remaining axes navigationally on top of this plan's result set) and
// builds a bottom-up plan if the path has the supported shape and the text
// predicate can use the text index; it returns nil otherwise. Backward axes
// inside the path or the predicate target leave the plan ineligible: the
// climb of run() only walks child and descendant hops. An empty literal
// leaves it ineligible too: contains, starts-with and ends-with are then
// constant, and = "" holds at nodes that have no text to climb from.
// A contains(., lit) whose target is not a single text runs on the
// compiler's occurrence-span table for lit, which a top-down evaluation of
// the same query shares.
//
// Eligibility is purely structural; whether the plan actually runs is the
// cost model's decision (chooseStrategy in cost.go).
func buildBottomUpPlan(c *compiler, path *Path) *buPlan {
	doc, opts := c.doc, c.opts
	if opts.ForceNaiveText {
		return nil
	}
	k := len(path.Steps)
	for i, st := range path.Steps {
		if st.Axis != AxisChild && st.Axis != AxisDescendant {
			return nil
		}
		if i < k-1 && len(st.Filters) > 0 {
			return nil
		}
	}
	last := path.Steps[k-1]
	if len(last.Filters) != 1 {
		return nil
	}
	te, ok := last.Filters[0].(*TextExpr)
	if !ok || (te.Literal == "" && te.Op != OpCustom) {
		return nil
	}
	plan := &buPlan{doc: doc, mainSteps: path.Steps}
	tgt := last
	if te.Target != nil {
		for _, st := range te.Target.Steps {
			if (st.Axis != AxisChild && st.Axis != AxisDescendant) || len(st.Filters) > 0 {
				return nil
			}
			plan.downChain = append(plan.downChain, dstep{axis: st.Axis, test: st.Test})
		}
		tgt = te.Target.Steps[len(te.Target.Steps)-1]
	}
	leafTag, single := c.singleText(tgt)
	if !single {
		if te.Target != nil || !spansUsable(doc, opts, te.Op, te.Literal) {
			return nil
		}
		plan.spans = c.spanTable(te.Literal)
		return plan
	}
	c.pred(te, tgt) // memoized: the plan climbs from the set the predicate tests
	if doc.FM == nil || te.match == nil {
		return nil
	}
	plan.leafTag, plan.match = leafTag, te.match
	// Unless the value target is itself a text() leaf, append the virtual
	// hop from the pure-text element (or attribute node) onto its leaf.
	if tgt.Test.Kind != TestText {
		plan.downChain = append(plan.downChain, dstep{axis: AxisChild, leaf: true})
	}
	return plan
}

// textMatches is the plan's work bound for the cost model: the exact number
// of text matches, or of occurrence spans for a span plan.
func (p *buPlan) textMatches() int {
	if p.spans != nil {
		return p.spans.get().count
	}
	return p.match.estimate()
}

// nodeStep keys the climbing memo table.
type nodeStep struct{ node, j int }

// forEachCandidate climbs from each matched leaf in text order, calling
// emit for every candidate result node it discovers. Candidates can repeat
// (the same node is reachable from several leaves or chains); callers
// deduplicate. emit returns false to stop the climb early, which is what
// makes bottom-up existence checks output-sensitive. Cancellation is polled
// through v: between leaves every 64 leaves, and inside the ancestor climbs,
// whose depth is document-scale on degenerate inputs (one long element
// chain), every 1,024 steps. A stop on a dead ctx leaves v.err set.
func (p *buPlan) forEachCandidate(v *upVerifier, emit func(int) bool) {
	if p.spans != nil {
		p.spans.get().forEachSpanCandidate(v, emit)
		return
	}
	d := p.doc
	set, n := p.match.get(), d.NumTexts()
	climbed := map[nodeStep]bool{}
	stopped := false

	var addCandidatesAbove func(node int, j int)
	addCandidatesAbove = func(node, j int) {
		key := nodeStep{node, j}
		if stopped || climbed[key] {
			return
		}
		climbed[key] = true
		if j < 0 {
			stopped = !emit(node)
			return
		}
		step := p.downChain[j]
		if step.axis == AxisChild {
			pa := d.Parent(node)
			if pa == xmltree.Nil {
				return
			}
			if j == 0 {
				stopped = !emit(pa)
			} else if p.matchesChain(pa, j-1) {
				addCandidatesAbove(pa, j-1)
			}
			return
		}
		// descendant hop: any proper ancestor can be the previous node
		for a := d.Parent(node); a != xmltree.Nil && !stopped; a = d.Parent(a) {
			if v.cancelled() {
				stopped = true
				return
			}
			if j == 0 {
				stopped = !emit(a)
			} else if p.matchesChain(a, j-1) {
				addCandidatesAbove(a, j-1)
			}
		}
	}

	for i, id := 0, set.First(0, n); id >= 0; i, id = i+1, set.First(id+1, n) {
		if i&63 == 0 && v.poll() {
			return
		}
		leaf := d.TextIDToNode(id)
		if d.TagOf(leaf) != p.leafTag {
			continue
		}
		if len(p.downChain) == 0 {
			// The result nodes are the text leaves themselves.
			if !emit(leaf) {
				return
			}
			continue
		}
		// The leaf must match the last chain hop.
		if !p.matchesChain(leaf, len(p.downChain)-1) {
			continue
		}
		addCandidatesAbove(leaf, len(p.downChain)-1)
		if stopped {
			return
		}
	}
}

// results calls emit once for each distinct verified result, until emit
// returns false, and returns the context's error if the run was cancelled.
// A candidate satisfies the text predicate by construction; the verifier
// checks the last step's test and the main path above it.
func (p *buPlan) results(ctx context.Context, emit func(int) bool) error {
	v := newUpVerifier(ctx, p.doc, p.mainSteps)
	last := len(p.mainSteps) - 1
	seen := map[int]bool{}
	p.forEachCandidate(&v, func(x int) bool {
		if seen[x] {
			return true
		}
		seen[x] = true
		if tagMatches(p.doc, p.doc.TagOf(x), p.mainSteps[last].Test, v.names[last]) && v.above(x, last) && !emit(x) {
			return false
		}
		return v.err == nil
	})
	return v.err
}

// runCtx executes the plan and returns the sorted result node positions: a
// nil error means out is complete.
func (p *buPlan) runCtx(ctx context.Context) ([]int, error) {
	var out []int
	if err := p.results(ctx, func(x int) bool { out = append(out, x); return true }); err != nil {
		return nil, err
	}
	sort.Ints(out)
	return out, nil
}

// countCtx counts the distinct verified results without materializing a
// node slice (counting mode over the climb).
func (p *buPlan) countCtx(ctx context.Context) (int64, error) {
	var n int64
	if err := p.results(ctx, func(int) bool { n++; return true }); err != nil {
		return 0, err
	}
	return n, nil
}

// existsCtx reports whether the plan produces any result, stopping the
// climb at the first verified candidate: for a selective text predicate
// this touches one leaf-to-root path instead of the whole match set.
func (p *buPlan) existsCtx(ctx context.Context) (bool, error) {
	found := false
	if err := p.results(ctx, func(int) bool { found = true; return false }); err != nil {
		return false, err
	}
	return found, nil
}

func (p *buPlan) matchesChain(node, j int) bool {
	step := p.downChain[j]
	if step.leaf {
		return p.doc.TagOf(node) == p.leafTag
	}
	return matchesTest(p.doc, node, step.test)
}

// upVerifier is MatchAbove of Figure 6 for a downward main path: it checks
// that the ancestors of a node of step i match steps[:i], anchored at the
// synthetic root by the first step's axis. The bottom-up plan verifies its
// candidates with it, and scanIter the candidates of its last step. At each
// ancestor a step's test and compiled filters (Step.pass) are checked before
// the walk goes on, and the verdicts of steps memoFrom.. are memoized per
// (node, step), so ancestors shared between candidates are verified once:
// the streaming analogue of the stop-at-LCA rule. The steps before memoFrom
// are child or leading descendant steps without filters, verified in one
// parent move each, which costs less than a map operation and allocates
// nothing. A descendant step walks every ancestor, which is document-scale
// on one long element chain, so the walks poll ctx every 1,024 steps. Once
// a poll has seen it done, err is set, every verdict is false and nothing
// more is memoized.
type upVerifier struct {
	d        *xmltree.Doc
	steps    []*Step
	names    []int32 // each step's name test resolved by testTag
	memoFrom int
	memo     map[uint64]bool // keyed by node*len(steps)+step

	ctx   context.Context
	done  <-chan struct{}
	ticks int
	err   error
}

func newUpVerifier(ctx context.Context, d *xmltree.Doc, steps []*Step) upVerifier {
	v := upVerifier{d: d, steps: steps, names: make([]int32, len(steps)), memoFrom: len(steps), ctx: ctx, done: ctxDone(ctx)}
	for i, st := range steps {
		v.names[i] = testTag(d, st.Test)
		if v.memoFrom == len(steps) && (len(st.Filters) > 0 || i > 0 && st.Axis == AxisDescendant) {
			v.memoFrom = i
		}
	}
	return v
}

// poll checks ctx now and reports whether it has been seen done.
func (v *upVerifier) poll() bool {
	if v.done != nil && v.err == nil {
		select {
		case <-v.done:
			v.err = v.ctx.Err()
		default:
		}
	}
	return v.err != nil
}

// cancelled counts one ancestor step, polls ctx on every 1,024th, and
// reports whether a poll has seen it done.
func (v *upVerifier) cancelled() bool {
	if v.ticks++; v.ticks&1023 == 0 {
		return v.poll()
	}
	return v.err != nil
}

// above reports whether the ancestors of x, a node of step i, match
// steps[:i].
func (v *upVerifier) above(x, i int) bool {
	d := v.d
	if i == 0 {
		if v.steps[0].Axis == AxisChild {
			return d.Parent(x) == d.Root()
		}
		return x != d.Root()
	}
	if v.steps[i].Axis == AxisChild {
		pa := d.Parent(x)
		return pa != xmltree.Nil && v.at(pa, i-1)
	}
	for a := d.Parent(x); a != xmltree.Nil && !v.cancelled(); a = d.Parent(a) {
		if v.at(a, i-1) {
			return true
		}
	}
	return false
}

// at reports whether node x can play step i: it passes the step's test and
// filters, and its ancestors match the steps before.
func (v *upVerifier) at(x, i int) bool {
	st := v.steps[i]
	if !tagMatches(v.d, v.d.TagOf(x), st.Test, v.names[i]) {
		return false
	}
	if i < v.memoFrom {
		return (st.pass == nil || st.pass(x)) && v.above(x, i)
	}
	key := uint64(x)*uint64(len(v.steps)) + uint64(i)
	if res, ok := v.memo[key]; ok {
		return res
	}
	res := (st.pass == nil || st.pass(x)) && v.above(x, i)
	if v.err != nil {
		return false
	}
	if v.memo == nil {
		v.memo = map[uint64]bool{}
	}
	v.memo[key] = res
	return res
}

// matchesTest checks a node test directly on a document node.
func matchesTest(d *xmltree.Doc, x int, t NodeTest) bool {
	return tagMatches(d, d.TagOf(x), t, testTag(d, t))
}

// testTag resolves a name test to its tag id; it is -1 for the other tests
// and for a name that does not occur.
func testTag(d *xmltree.Doc, t NodeTest) int32 {
	if t.Kind != TestName {
		return -1
	}
	return d.TagID(t.Name)
}

// tagMatches checks a node test on a node's tag, with the test's name
// already resolved by testTag.
func tagMatches(d *xmltree.Doc, tag int32, t NodeTest, name int32) bool {
	switch t.Kind {
	case TestName:
		return tag == name
	case TestStar:
		return tag != d.TextTag() && tag != d.AttrsTag() && tag != d.AttrValTag() && tag != d.RootTag()
	case TestText:
		return tag == d.TextTag()
	case TestNode:
		return tag != d.AttrsTag() && tag != d.AttrValTag() && tag != d.RootTag()
	}
	return false
}
