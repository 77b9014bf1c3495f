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
//
// The iterator evaluates nothing of its own: the upward check is the
// bottom-up plan's upVerifier (bottomup.go), polling cancellation inside
// long ancestor walks as the plan does, and the filters are the node tests
// Compile built, whose text predicates share the automaton's match sets
// and occurrence spans.

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
// candidate that passes the last step's filters is verified upward by the
// embedded upVerifier, the bottom-up plan's. Filters anywhere in the path
// are the node tests Compile built (Step.pass), so text predicates read the
// same match sets and occurrence spans as the automaton.
type scanIter struct {
	upVerifier

	useJump   bool
	jumpTag   int32
	rank      int // next occurrence of jumpTag to yield (jump mode)
	pos       int // next BP position to probe (sweep mode)
	exhausted bool
	checked   int
	closed    bool
}

func newScanIter(ctx context.Context, d *xmltree.Doc, steps []*Step) *scanIter {
	it := &scanIter{upVerifier: newUpVerifier(ctx, d, steps)}
	it.err = ctxErr(ctx)
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
		if it.d.Par.IsOpen(p) && tagMatches(it.d, it.d.TagOf(p), it.steps[last].Test, it.names[last]) {
			return p, true
		}
	}
	it.exhausted = true
	return 0, false
}

func (it *scanIter) Next() (int, bool) {
	if it.closed || it.err != nil {
		return 0, false
	}
	last := len(it.steps) - 1
	pass := it.steps[last].pass
	for {
		it.checked++
		if it.checked&255 == 0 && it.poll() {
			return 0, false
		}
		x, ok := it.nextCandidate()
		if !ok {
			return 0, false
		}
		if (pass == nil || pass(x)) && it.above(x, last) {
			return x, true
		}
		if it.err != nil {
			return 0, false
		}
	}
}

func (it *scanIter) Err() error { return it.err }

func (it *scanIter) Close() error {
	it.closed = true
	return nil
}
