package automata

import (
	"context"
	"math"
	"sort"

	"repro/internal/xmltree"
)

// Mode selects the result semantics (Section 5.5.3).
type Mode uint8

const (
	// Count replaces result sets by integer counters.
	Count Mode = iota
	// Materialize builds the result node sequence (with lazy segments,
	// Section 5.5.4).
	Materialize
)

// Options toggle the optimizations of Sections 5.4.1 and 5.5 (the axes of
// the Figure 12 ablation).
type Options struct {
	NoJump  bool // disable jumping to relevant nodes
	NoMemo  bool // disable JIT memoization of transition computations
	NoEarly bool // disable early (partial) formula evaluation
	NoLazy  bool // disable lazy result sets / SubtreeTags counting
}

// Stats reports evaluation effort (Figure 13).
type Stats struct {
	Visited int64 // nodes on which transitions were evaluated
	Marked  int64 // nodes marked during the run
}

// Res is a per-state result value: a counter in Count mode, a lazy node
// sequence in Materialize mode.
type Res struct {
	count int64
	seq   *Seq
}

// Seq is an O(1)-concatenation sequence of marked nodes; lazy segments
// stand for "every occurrence of these tags in [from, end)".
type Seq struct {
	kind      uint8 // 0 leaf, 1 cat, 2 lazy
	node      int
	l, r      *Seq
	from, end int
	tags      []int32
}

const (
	seqLeaf = iota
	seqCat
	seqLazy
)

// Expand materializes the sequence as sorted, distinct node positions.
func (s *Seq) Expand(doc *xmltree.Doc) []int {
	var out []int
	var walk func(*Seq)
	walk = func(n *Seq) {
		if n == nil {
			return
		}
		switch n.kind {
		case seqLeaf:
			out = append(out, n.node)
		case seqCat:
			walk(n.l)
			walk(n.r)
		case seqLazy:
			for _, t := range n.tags {
				for p := doc.Tag.NextOccurrence(2*t, n.from); p >= 0 && p < n.end; p = doc.Tag.NextOccurrence(2*t, p+1) {
					out = append(out, p)
				}
			}
		}
	}
	walk(s)
	sort.Ints(out)
	// adjacent duplicates can only arise from overlapping transitions
	out = dedupSorted(out)
	return out
}

func dedupSorted(a []int) []int {
	if len(a) < 2 {
		return a
	}
	w := 1
	for i := 1; i < len(a); i++ {
		if a[i] != a[w-1] {
			a[w] = a[i]
			w++
		}
	}
	return a[:w]
}

// runRes maps satisfiable states to their result values.
type runRes struct {
	sat  uint64
	vals []Res // indexed by state; only entries of sat are meaningful
}

// Evaluator runs an automaton over a document. After a run that returned,
// it may run again: each run starts from zero Stats, and keeps what earlier
// runs built, which depends only on the automaton and the document — the JIT
// tables, the vals free list and the jump cursors.
type Evaluator struct {
	A    *Automaton
	Doc  *xmltree.Doc
	Mode Mode
	Opts Options

	Stats Stats

	// JIT tables (Section 5.5.2): instruction cache keyed by
	// (state set, label), and jump info keyed by state set.
	instrCache map[instrKey]*instr
	jumpCache  map[uint64]*jumpInfo

	// freelist of vals slices: child results are copied by value into the
	// parent's result, so their slices can be recycled immediately. A slice
	// is cleared when it is freed, so the list holds no results.
	valsPool [][]Res

	// cursors caches one jump answer per tag id (see nextInSet); nil until
	// the first jump.
	cursors []cursor

	// Cancellation state for RunContext: the recursive run polls ctxDone
	// every few visited nodes and unwinds with a runCancelled panic, since
	// threading an error through the deep recursion would cost on every
	// frame of the hot path.
	ctx     context.Context
	ctxDone <-chan struct{}
}

// cursor is a tag's last jump answer: next is the tag's first opening
// position at or after at (math.MaxInt for none), so it is also the answer
// for every position in [at, next].
type cursor struct{ at, next int }

// runCancelled is the panic sentinel RunContext recovers.
type runCancelled struct{ err error }

type instrKey struct {
	q   uint64
	tag int32
}

// instr is the memoized "compiled" behaviour for a (state set, label) pair.
type instr struct {
	pairs  []statePhi
	q1, q2 uint64
	// markFree{1,2}: no state requested downward in that direction can
	// produce marks, enabling early formula evaluation (Section 5.5.5).
	markFree1, markFree2 bool
}

type statePhi struct {
	q   int
	phi *Formula
}

// jumpInfo is the per-state-set jumpability analysis (Section 5.4.1).
type jumpInfo struct {
	jumpable  bool
	triggers  []int32
	collector bool // all states are collectors: lazy sets apply
}

// NewEvaluator binds an automaton to a document.
func NewEvaluator(a *Automaton, doc *xmltree.Doc, mode Mode, opts Options) *Evaluator {
	return &Evaluator{
		A: a, Doc: doc, Mode: mode, Opts: opts,
		instrCache: map[instrKey]*instr{},
		jumpCache:  map[uint64]*jumpInfo{},
	}
}

// RunContext is Run with cancellation: when ctx is cancelled the run stops
// at the next visit poll (every 64 visited nodes) and the context's error
// is returned. An evaluator whose run was cancelled, or panicked, must not
// be reused: the run stopped between two updates of its state, and the
// unwound frames never returned their vals slices. One whose run returned
// may run again.
func (ev *Evaluator) RunContext(ctx context.Context) (n int64, nodes []int, err error) {
	if ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		ev.ctx, ev.ctxDone = ctx, ctx.Done()
		defer func() {
			ev.ctx, ev.ctxDone = nil, nil
			if r := recover(); r != nil {
				rc, ok := r.(runCancelled)
				if !ok {
					panic(r)
				}
				n, nodes, err = 0, nil, rc.err
			}
		}()
	}
	n, nodes = ev.Run()
	return n, nodes, nil
}

// Run evaluates the automaton from the document root and returns the marks
// of the start state. In Count mode the returned slice is nil and the count
// is the first return value.
func (ev *Evaluator) Run() (int64, []int) {
	ev.Stats = Stats{}
	root := ev.Doc.Root()
	if root == xmltree.Nil {
		return 0, nil
	}
	end := ev.Doc.Close(root) + 1
	r := ev.run(1<<uint(ev.A.Start), root, end)
	q := ev.A.Start
	var n int64
	var nodes []int
	switch {
	case r.sat>>uint(q)&1 == 0:
	case ev.Mode == Count:
		n = r.vals[q].count
	default:
		nodes = r.vals[q].seq.Expand(ev.Doc)
	}
	ev.freeVals(&r)
	if keep := maxFreeBytes / (resBytes * max(1, ev.A.NumStates)); len(ev.valsPool) > keep {
		ev.valsPool = append([][]Res(nil), ev.valsPool[:keep]...)
	}
	return n, nodes
}

// maxFreeBytes bounds the vals free list an evaluator keeps between runs.
// The list grows to the deepest chain of live frames in a run — one per
// sibling the run recursed over — which on a flat document is one per node.
const maxFreeBytes = 4 << 20

// resBytes is the size of a Res on a 64-bit platform.
const resBytes = 16

func (ev *Evaluator) base(q uint64) runRes {
	return runRes{sat: q & ev.A.Bottom, vals: ev.allocVals()}
}

func (ev *Evaluator) allocVals() []Res {
	if n := len(ev.valsPool); n > 0 {
		v := ev.valsPool[n-1]
		ev.valsPool = ev.valsPool[:n-1]
		return v
	}
	return make([]Res, ev.A.NumStates)
}

func (ev *Evaluator) freeVals(r *runRes) {
	if r.vals != nil {
		clear(r.vals)
		ev.valsPool = append(ev.valsPool, r.vals)
		r.vals = nil
	}
}

// run evaluates the region [pos, end): the sequence of sibling subtrees
// starting at node pos, bounded by end.
func (ev *Evaluator) run(q uint64, pos, end int) runRes {
	if q == 0 {
		return runRes{vals: ev.allocVals()}
	}
	if pos == xmltree.Nil || pos >= end {
		return ev.base(q)
	}
	doc := ev.Doc
	// A jumped (flattened) region can resume at a closing parenthesis — a
	// "level pop". Chain-scanning states (LoopRight/LoopNone) end their run
	// there as if at Nil; transparent loop states continue past it.
	for !doc.Par.IsOpen(pos) {
		if dead := q &^ ev.A.Transparent(); dead != 0 {
			r := ev.run(q&^dead, pos+1, end)
			r.sat |= dead & ev.A.Bottom
			return r
		}
		pos++
		if pos >= end {
			return ev.base(q)
		}
	}
	if !ev.Opts.NoJump {
		ji := ev.jumpInfo(q)
		if ji.jumpable {
			if ji.collector && !ev.Opts.NoLazy {
				return ev.collect(q, ji, pos, end)
			}
			pos = ev.nextInSet(ji.triggers, pos, end)
			if pos == xmltree.Nil {
				return ev.base(q)
			}
		}
	}
	ev.Stats.Visited++
	if ev.ctxDone != nil && ev.Stats.Visited&63 == 0 {
		select {
		case <-ev.ctxDone:
			panic(runCancelled{ev.ctx.Err()})
		default:
		}
	}
	inst := ev.instruction(q, doc.TagOf(pos))
	cl := doc.Close(pos)

	if !ev.Opts.NoEarly && inst.markFree1 && inst.markFree2 {
		if r, ok := ev.evalInstr(inst, q, pos, nil, nil); ok {
			return r
		}
	}
	r1 := ev.run(inst.q1, pos+1, cl)
	if !ev.Opts.NoEarly && inst.markFree2 {
		if r, ok := ev.evalInstr(inst, q, pos, &r1, nil); ok {
			ev.freeVals(&r1)
			return r
		}
	}
	r2 := ev.run(inst.q2, cl+1, end)
	r, _ := ev.evalInstr(inst, q, pos, &r1, &r2)
	ev.freeVals(&r1)
	ev.freeVals(&r2)
	return r
}

// collect implements the lazy result set / constant-time subtree counting
// of Section 5.5.4 for collector state sets.
func (ev *Evaluator) collect(q uint64, ji *jumpInfo, pos, end int) runRes {
	r := ev.base(q)
	var total int64
	for _, t := range ji.triggers {
		total += int64(ev.Doc.Tag.Rank(2*t, end) - ev.Doc.Tag.Rank(2*t, pos))
	}
	ev.Stats.Marked += total
	for s := q; s != 0; s &= s - 1 {
		qi := trailing(s)
		if ev.Mode == Count {
			r.vals[qi].count = total
		} else if total > 0 {
			r.vals[qi].seq = &Seq{kind: seqLazy, from: pos, end: end, tags: ji.triggers}
		}
	}
	return r
}

// nextInSet returns the smallest paren position q with from <= q < end whose
// entry is the opening tag of one of set's tags, or Nil. This is the
// multi-tag jump of Section 5.4.1. A run visits nodes in document order, so
// from only grows within a run; each tag's row is queried again only
// once from has passed that tag's cached answer.
func (ev *Evaluator) nextInSet(set []int32, from, end int) int {
	if ev.cursors == nil {
		ev.cursors = make([]cursor, ev.Doc.NumTags())
		for i := range ev.cursors {
			ev.cursors[i] = cursor{at: 1, next: 0} // answers no position
		}
	}
	best := end
	for _, t := range set {
		c := &ev.cursors[t]
		if from < c.at || from > c.next {
			c.at, c.next = from, ev.Doc.Tag.NextOccurrence(2*t, from)
			if c.next < 0 {
				c.next = math.MaxInt
			}
		}
		best = min(best, c.next)
	}
	if best == end {
		return xmltree.Nil
	}
	return best
}

func trailing(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// jumpInfo memoizes the jumpability analysis for a state set.
func (ev *Evaluator) jumpInfo(q uint64) *jumpInfo {
	if !ev.Opts.NoMemo {
		if ji, ok := ev.jumpCache[q]; ok {
			return ji
		}
	}
	ji := ev.computeJumpInfo(q)
	if !ev.Opts.NoMemo {
		ev.jumpCache[q] = ji
	}
	return ji
}

func (ev *Evaluator) computeJumpInfo(q uint64) *jumpInfo {
	a := ev.A
	ji := &jumpInfo{jumpable: true, collector: true}
	seen := map[int32]bool{}
	for s := q; s != 0; s &= s - 1 {
		qi := trailing(s)
		switch a.loop[qi] {
		case LoopConj, LoopDisj:
		default:
			ji.jumpable = false
			ji.collector = false
			return ji
		}
		if a.trigCofin[qi] {
			ji.jumpable = false
			ji.collector = false
			return ji
		}
		for _, t := range a.trigTags[qi] {
			if !seen[t] {
				seen[t] = true
				ji.triggers = append(ji.triggers, t)
			}
		}
		if a.collectible>>uint(qi)&1 == 0 {
			ji.collector = false
		}
	}
	// A collector set must also be a single state: several collectors with
	// different triggers would need per-state counts.
	if ji.collector && popcount(q) != 1 {
		ji.collector = false
	}
	return ji
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// instruction memoizes the transition selection of TopDownRun lines 4-5.
func (ev *Evaluator) instruction(q uint64, tag int32) *instr {
	if ev.Opts.NoMemo {
		return ev.computeInstr(q, tag)
	}
	k := instrKey{q: q, tag: tag}
	if in, ok := ev.instrCache[k]; ok {
		return in
	}
	in := ev.computeInstr(q, tag)
	ev.instrCache[k] = in
	return in
}

func (ev *Evaluator) computeInstr(q uint64, tag int32) *instr {
	a := ev.A
	in := &instr{}
	for s := q; s != 0; s &= s - 1 {
		qi := trailing(s)
		for _, t := range a.Trans[qi] {
			if t.Guard.Contains(tag) {
				in.pairs = append(in.pairs, statePhi{q: qi, phi: t.Phi})
				t.Phi.downStates(&in.q1, &in.q2)
			}
		}
	}
	in.markFree1 = in.q1&a.canMark == 0
	in.markFree2 = in.q2&a.canMark == 0
	return in
}

// three-valued truth
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvUnknown
)

// evalInstr evaluates all selected formulas at node pos. r1/r2 may be nil
// (unknown) only when the corresponding direction is guaranteed mark-free
// by the caller; ok is false when some state's truth or marks could not be
// resolved without the missing direction, in which case the caller must
// retry with more information. Evaluation is two-phase: truth first (pure,
// no mark accounting), then value construction for committed transitions,
// so marks are counted exactly once (Figure 4 semantics).
func (ev *Evaluator) evalInstr(in *instr, q uint64, pos int, r1, r2 *runRes) (runRes, bool) {
	var buf [16]tv
	tvs := buf[:0]
	for _, p := range in.pairs {
		tvs = append(tvs, ev.truth(p.phi, pos, r1, r2))
	}
	// Per state: true if any transition is true; unresolved if any
	// transition is unknown and either carries marks or the state is not
	// yet known true.
	for s := q; s != 0; s &= s - 1 {
		qi := trailing(s)
		anyTrue, anyUnknown, unknownMark := false, false, false
		for i, p := range in.pairs {
			if p.q != qi {
				continue
			}
			switch tvs[i] {
			case tvTrue:
				anyTrue = true
			case tvUnknown:
				anyUnknown = true
				if p.phi.hasMark {
					unknownMark = true
				}
			}
		}
		if unknownMark || (anyUnknown && !anyTrue) {
			return runRes{}, false
		}
	}
	res := runRes{vals: ev.allocVals()}
	for i, p := range in.pairs {
		if tvs[i] != tvTrue {
			continue
		}
		v := ev.value(p.phi, pos, r1, r2)
		if res.sat>>uint(p.q)&1 == 1 {
			res.vals[p.q] = ev.plus(res.vals[p.q], v)
		} else {
			res.sat |= 1 << uint(p.q)
			res.vals[p.q] = v
		}
	}
	return res, true
}

func (ev *Evaluator) plus(a, b Res) Res {
	if ev.Mode == Count {
		return Res{count: a.count + b.count}
	}
	switch {
	case a.seq == nil:
		return b
	case b.seq == nil:
		return a
	}
	return Res{seq: &Seq{kind: seqCat, l: a.seq, r: b.seq}}
}

func (ev *Evaluator) one(node int) Res {
	ev.Stats.Marked++
	if ev.Mode == Count {
		return Res{count: 1}
	}
	return Res{seq: &Seq{kind: seqLeaf, node: node}}
}

// truth computes the three-valued truth of phi (Figure 4, truth part). A
// nil r1/r2 renders the corresponding down-atoms unknown. It is pure: no
// mark accounting, no result construction.
func (ev *Evaluator) truth(phi *Formula, pos int, r1, r2 *runRes) tv {
	switch phi.Kind {
	case FTrue, FMark:
		return tvTrue
	case FFalse:
		return tvFalse
	case FPred:
		if ev.A.Factory.preds[phi.PredID](pos) {
			return tvTrue
		}
		return tvFalse
	case FDown1:
		if r1 == nil {
			return tvUnknown
		}
		if r1.sat>>uint(phi.Q)&1 == 1 {
			return tvTrue
		}
		return tvFalse
	case FDown2:
		if r2 == nil {
			return tvUnknown
		}
		if r2.sat>>uint(phi.Q)&1 == 1 {
			return tvTrue
		}
		return tvFalse
	case FAnd:
		lt := ev.truth(phi.L, pos, r1, r2)
		if lt == tvFalse {
			return tvFalse
		}
		rt := ev.truth(phi.R, pos, r1, r2)
		if rt == tvFalse {
			return tvFalse
		}
		if lt == tvTrue && rt == tvTrue {
			return tvTrue
		}
		return tvUnknown
	case FOr:
		lt := ev.truth(phi.L, pos, r1, r2)
		rt := ev.truth(phi.R, pos, r1, r2)
		switch {
		case lt == tvTrue && rt == tvTrue:
			return tvTrue
		case lt == tvTrue:
			// True overall, but an unknown mark-bearing right side means
			// the value is not yet computable; report unknown so the
			// caller retries with full information.
			if rt == tvUnknown && phi.R.hasMark {
				return tvUnknown
			}
			return tvTrue
		case rt == tvTrue:
			if lt == tvUnknown && phi.L.hasMark {
				return tvUnknown
			}
			return tvTrue
		case lt == tvFalse && rt == tvFalse:
			return tvFalse
		}
		return tvUnknown
	case FNot:
		switch ev.truth(phi.L, pos, r1, r2) {
		case tvTrue:
			return tvFalse
		case tvFalse:
			return tvTrue
		}
		return tvUnknown
	}
	return tvFalse
}

// value constructs the result of a formula known to be true (Figure 4,
// marking part). Unknown subvalues are guaranteed mark-free.
func (ev *Evaluator) value(phi *Formula, pos int, r1, r2 *runRes) Res {
	switch phi.Kind {
	case FMark:
		return ev.one(pos)
	case FDown1:
		if r1 != nil && r1.sat>>uint(phi.Q)&1 == 1 {
			return r1.vals[phi.Q]
		}
		return Res{}
	case FDown2:
		if r2 != nil && r2.sat>>uint(phi.Q)&1 == 1 {
			return r2.vals[phi.Q]
		}
		return Res{}
	case FAnd:
		// Both sides are true.
		return ev.plus(ev.value(phi.L, pos, r1, r2), ev.value(phi.R, pos, r1, r2))
	case FOr:
		var v Res
		if ev.truth(phi.L, pos, r1, r2) == tvTrue {
			v = ev.plus(v, ev.value(phi.L, pos, r1, r2))
		}
		if ev.truth(phi.R, pos, r1, r2) == tvTrue {
			v = ev.plus(v, ev.value(phi.R, pos, r1, r2))
		}
		return v
	}
	return Res{}
}
