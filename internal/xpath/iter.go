package xpath

// Streaming result iterators. The top-down marking automaton cannot stream:
// its marks are provisional (a speculative down-state launch may be discarded
// when an ancestor's formula later fails), so results only become definite
// when the whole run finishes. The leaf-order bottom-up climb cannot stream
// either — a later text match can climb to a candidate that PRECEDES an
// already-produced one in document order. What does stream is the dual view:
// scan the candidates of the LAST step in position order (the BP position of
// a node is its document-order rank, and the per-tag rank directories jump
// between occurrences of a named test in O(1)-ish time), and verify each
// candidate's ancestor path upward against the earlier steps, memoizing the
// per-(node, step) verdicts so shared ancestors are verified once. For the
// downward fragment this yields lazy document-order iteration whose cost is
// proportional to the candidates of the most selective bound we have — the
// last step — not to the full result set.

import (
	"context"

	"repro/internal/xmltree"
)

// ResultIter streams the positions of result nodes in document order.
//
// Next returns the next result and true, or false when the iteration is
// exhausted, cancelled or closed; after Next returns false, Err
// distinguishes completion (nil) from cancellation (the context's error).
// Close releases the iterator; it is idempotent and must be called (or the
// iterator drained) before the index the query is bound to is closed, since
// live iterators read from the engine's (possibly memory-mapped) structures.
type ResultIter interface {
	Next() (int, bool)
	Err() error
	Close() error
}

// ctxDone returns the context's done channel, or nil when the context can
// never be cancelled (context.Background and friends), letting hot loops
// skip the select entirely.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr is the upfront cancellation check: evaluation entry points fail
// immediately on an already-done context instead of starting work whose
// first poll may be hundreds of nodes in.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// materializedIter adapts an already-evaluated node set (or a failed
// evaluation) to ResultIter for the strategies that cannot stream.
type materializedIter struct {
	nodes  []int
	i      int
	err    error
	closed bool
}

func (it *materializedIter) Next() (int, bool) {
	if it.closed || it.err != nil || it.i >= len(it.nodes) {
		return 0, false
	}
	x := it.nodes[it.i]
	it.i++
	return x, true
}

func (it *materializedIter) Err() error { return it.err }

func (it *materializedIter) Close() error {
	it.closed = true
	return nil
}

// scanIter lazily evaluates a pure downward path (child/descendant axes
// only, no navigational post segment) in document order: candidates for the
// last step come from a tag-row occurrence scan (named and text() tests) or
// a sweep over the opening parentheses (star and node() tests), and each
// candidate is verified upward with upMatchEval. Predicates anywhere in the
// path are evaluated with the naive navigational semantics (navEvalExpr),
// which the differential suite pins against the DOM oracle.
type scanIter struct {
	ctx  context.Context
	done <-chan struct{}
	d    *xmltree.Doc
	opts Options

	steps []*Step
	names []int32 // each step's name test resolved by testTag

	useJump   bool
	jumpTag   int32
	rank      int // next occurrence of jumpTag to yield (jump mode)
	pos       int // next BP position to probe (sweep mode)
	exhausted bool

	// memo holds the verdicts of steps memoFrom.. before the last, keyed by
	// node*len(steps)+step. The steps before memoFrom are child or leading
	// descendant steps without filters, verified in one parent move each,
	// which costs less than a map operation and allocates nothing.
	memo     map[uint64]bool
	memoFrom int
	checked  int
	err      error
	closed   bool
}

func newScanIter(ctx context.Context, d *xmltree.Doc, opts Options, steps []*Step) *scanIter {
	it := &scanIter{
		ctx:   ctx,
		done:  ctxDone(ctx),
		d:     d,
		opts:  opts,
		steps: steps,
		names: make([]int32, len(steps)),
		err:   ctxErr(ctx),
	}
	it.resolveSteps()
	last := steps[len(steps)-1]
	if tag, ok := navJumpTag(d, last.Test); ok {
		if tag < 0 {
			it.exhausted = true // the label does not occur in the document
		} else {
			it.useJump = true
			it.jumpTag = tag
		}
	}
	return it
}

// resolveSteps fills names and memoFrom from the steps.
func (it *scanIter) resolveSteps() {
	it.memoFrom = len(it.steps)
	for i, st := range it.steps {
		it.names[i] = testTag(it.d, st.Test)
		if it.memoFrom == len(it.steps) && (len(st.Filters) > 0 || i > 0 && st.Axis == AxisDescendant) {
			it.memoFrom = i
		}
	}
}

// matches checks step i's node test on node x.
func (it *scanIter) matches(x, i int) bool {
	return tagMatches(it.d, it.d.TagOf(x), it.steps[i].Test, it.names[i])
}

// nextCandidate yields the next node matching the last step's test, in
// position (= document) order.
func (it *scanIter) nextCandidate() (int, bool) {
	if it.exhausted {
		return 0, false
	}
	if it.useJump {
		q := it.d.Tag.Select(2*it.jumpTag, it.rank)
		if q < 0 {
			it.exhausted = true
			return 0, false
		}
		it.rank++
		return q, true
	}
	// Sweep: every opening parenthesis, in position order.
	last := len(it.steps) - 1
	for n := it.d.Par.Len(); it.pos < n; {
		p := it.pos
		it.pos++
		if it.d.Par.IsOpen(p) && it.matches(p, last) {
			return p, true
		}
	}
	it.exhausted = true
	return 0, false
}

// upMatch is upMatchEval for a step before the last, memoized per (node,
// step) from memoFrom on, so ancestors shared between candidates are
// verified once — the streaming analogue of the bottom-up verifier's
// stop-at-LCA memoization. The last step is not memoized: each candidate
// reaches it exactly once.
func (it *scanIter) upMatch(x, i int) bool {
	if i < it.memoFrom {
		return it.upMatchEval(x, i)
	}
	key := uint64(x)*uint64(len(it.steps)) + uint64(i)
	if v, ok := it.memo[key]; ok {
		return v
	}
	if it.memo == nil {
		it.memo = map[uint64]bool{}
	}
	res := it.upMatchEval(x, i)
	it.memo[key] = res
	return res
}

// upMatchEval reports whether node x can play the role of step i: it
// satisfies the step's test and filters, and some ancestor chain above it
// matches steps[0..i-1], anchored at the synthetic root by step 0's axis.
func (it *scanIter) upMatchEval(x, i int) bool {
	d, st := it.d, it.steps[i]
	if !it.matches(x, i) {
		return false
	}
	for _, f := range st.Filters {
		if !navEvalExpr(d, it.opts, x, f) {
			return false
		}
	}
	if i == 0 {
		if st.Axis == AxisChild {
			return d.Parent(x) == d.Root()
		}
		return x != d.Root()
	}
	if st.Axis == AxisChild {
		pa := d.Parent(x)
		return pa != xmltree.Nil && it.upMatch(pa, i-1)
	}
	for a := d.Parent(x); a != xmltree.Nil; a = d.Parent(a) {
		if it.upMatch(a, i-1) {
			return true
		}
	}
	return false
}

func (it *scanIter) Next() (int, bool) {
	if it.closed || it.err != nil {
		return 0, false
	}
	last := len(it.steps) - 1
	for {
		it.checked++
		if it.done != nil && it.checked&255 == 0 {
			select {
			case <-it.done:
				it.err = it.ctx.Err()
				return 0, false
			default:
			}
		}
		x, ok := it.nextCandidate()
		if !ok {
			return 0, false
		}
		if it.upMatchEval(x, last) {
			return x, true
		}
	}
}

func (it *scanIter) Err() error { return it.err }

func (it *scanIter) Close() error {
	it.closed = true
	return nil
}
