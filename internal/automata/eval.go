package automata

import (
	"context"
	"math"
	"math/bits"
	"slices"
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

// Expand materializes the sequence as sorted, distinct node positions. It
// walks the cat tree with an explicit stack: a run that marks a chain of n
// siblings builds a cat chain n deep.
func (s *Seq) Expand(doc *xmltree.Doc) []int {
	var out []int
	stack := []*Seq{s}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			continue
		}
		switch n.kind {
		case seqLeaf:
			out = append(out, n.node)
		case seqCat:
			stack = append(stack, n.r, n.l)
		case seqLazy:
			for _, t := range n.tags {
				for p := doc.Tag.NextOccurrence(2*t, n.from); p >= 0 && p < n.end; p = doc.Tag.NextOccurrence(2*t, p+1) {
					out = append(out, p)
				}
			}
		}
	}
	sort.Ints(out)
	// adjacent duplicates can only arise from overlapping transitions
	return dedupSorted(out)
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
	sat uint64
	// vals is indexed by state; only entries of sat are meaningful. It is
	// nil when every value is zero — a base result, the empty set's, and
	// an outcome without value ops — so the visits that end a chain or
	// reach a leaf take nothing from the free list; val reads nil as zeros.
	vals []Res
}

// val returns state q's value.
func (r *runRes) val(q uint8) Res {
	if r.vals == nil {
		return Res{}
	}
	return r.vals[q]
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

	// JIT tables (Section 5.5.2): every state set the run meets has a dense
	// id indexing sets; sets[0] is the empty set. A set holds its jump
	// analysis and its instructions by tag, and each instruction its
	// outcome tables. setIDs interns the sets; it is read only when the
	// evaluator or an instruction is built.
	sets   []*stateSet
	setIDs map[uint64]int32
	start  int32 // id of {A.Start}

	// scratch receives the outcomes that are not stored (see instr.table).
	scratch outcome

	// freelist of vals slices: child results are copied by value into the
	// parent's result, so their slices can be recycled immediately. A slice
	// is cleared when it is freed, so the list holds no results. Only
	// results with a value hold a slice (see runRes.vals).
	valsPool [][]Res

	// cursors caches one jump answer per tag id (see nextInSet); nil until
	// the first jump.
	cursors []cursor

	// Cancellation state for Run: the recursive run polls ctxDone
	// every few visited nodes and unwinds with a runCancelled panic, since
	// threading an error through the deep recursion would cost on every
	// frame of the hot path.
	ctx     context.Context
	ctxDone <-chan struct{}
}

// cursor is a tag's last jump answer: next is the tag's first opening
// position at or after at (math.MaxInt for none), so it is also the answer
// for every position in [at, next]. k is next's index among the tag's
// occurrences, the finger seek steps from, or -1 without one.
type cursor struct{ at, next, k int }

// runCancelled is the panic sentinel Run recovers.
type runCancelled struct{ err error }

// stateSet is an interned state set.
type stateSet struct {
	mask uint64
	jump jumpInfo
	// pop is the id of mask & A.transparent: the set a run continues
	// with past a level pop.
	pop int32
	// instrs holds the set's instructions by tag; nil until the set's
	// first visit.
	instrs []*instr
}

// maxOutcomeBits bounds the down-states an instruction's outcome key reads,
// so an instruction stores at most 1 + 2·2^maxOutcomeBits outcomes.
const maxOutcomeBits = 12

// instr is the compiled behaviour of a (state set, label) pair: the
// transitions it selects and the outcomes of their formulas.
type instr struct {
	pairs  []statePhi // grouped by state
	q1, q2 int32      // ids of the states read by ↓1 and ↓2
	// markFree{1,2}: no state requested downward in that direction can
	// produce marks, enabling early formula evaluation (Section 5.5.5).
	markFree1, markFree2 bool

	// table stores the outcomes, which are a function of their key. It is
	// nil under NoMemo, when a formula has a predicate atom (its truth
	// depends on the node), and when the key would read more than
	// maxOutcomeBits states; such outcomes are built on every visit.
	table *outcomeTable
}

// outcomeTable holds an instruction's outcomes by key.
type outcomeTable struct {
	// down lists the states of q1, then of q2 (n1 and n2 of them), whose
	// satisfaction bits form the key.
	down   [maxOutcomeBits]uint8
	n1, n2 uint8
	// byPhase[phase] is indexed by the key's bits; phase 0 knows neither
	// child result, 1 the first-child one, 2 both. nil until first used.
	byPhase [3][]*outcome
}

type statePhi struct {
	q   int
	phi *Formula
}

// outcome is the result of an instruction's formulas for one key: the
// satisfied states and the ops that build their values. An unresolved
// outcome needs more information (Section 5.5.5): the caller retries once
// more child results are known.
type outcome struct {
	resolved bool
	sat      uint64
	ops      []valueOp
}

// valueOp adds a value to state dst's result: a mark of the visited node,
// or state q's result from the first-child (↓1) or next-sibling (↓2) run.
type valueOp struct{ dst, src, q uint8 }

const (
	opMark uint8 = iota
	opDown1
	opDown2
)

// jumpInfo is the per-state-set jumpability analysis (Section 5.4.1).
type jumpInfo struct {
	jumpable  bool
	triggers  []int32
	collector bool // all states are collectors: lazy sets apply
}

// NewEvaluator binds an automaton to a document.
func NewEvaluator(a *Automaton, doc *xmltree.Doc, mode Mode, opts Options) *Evaluator {
	ev := &Evaluator{A: a, Doc: doc, Mode: mode, Opts: opts, setIDs: map[uint64]int32{}}
	ev.intern(0)
	ev.start = ev.intern(1 << uint(a.Start))
	return ev
}

// intern returns q's id, adding the set on its first use.
func (ev *Evaluator) intern(q uint64) int32 {
	if id, ok := ev.setIDs[q]; ok {
		return id
	}
	id := int32(len(ev.sets))
	s := &stateSet{mask: q, jump: ev.computeJumpInfo(q)}
	ev.sets = append(ev.sets, s)
	ev.setIDs[q] = id
	s.pop = ev.intern(q & ev.A.transparent)
	return id
}

// Run evaluates the automaton from the document root and returns the marks
// of the start state. In Count mode the returned slice is nil and the count
// is the first return value. When ctx is cancelled the run stops at the
// next visit poll (every 64 visited nodes) and the context's error is
// returned. An evaluator whose run was cancelled, or panicked, must not be
// reused: the run stopped between two updates of its state, and the
// unwound frames never returned their vals slices. One whose run returned
// may run again.
func (ev *Evaluator) Run(ctx context.Context) (n int64, nodes []int, err error) {
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
	ev.Stats = Stats{}
	root := ev.Doc.Root()
	if root == xmltree.Nil {
		return 0, nil, nil
	}
	end := ev.Doc.Close(root) + 1
	r := ev.run(ev.start, root, end)
	q := ev.A.Start
	switch {
	case r.sat>>uint(q)&1 == 0:
	case ev.Mode == Count:
		n = r.val(uint8(q)).count
	default:
		nodes = r.val(uint8(q)).seq.Expand(ev.Doc)
	}
	ev.freeVals(&r)
	if keep := maxFreeBytes / (resBytes * max(1, ev.A.NumStates)); len(ev.valsPool) > keep {
		ev.valsPool = append([][]Res(nil), ev.valsPool[:keep]...)
	}
	return n, nodes, nil
}

// maxFreeBytes bounds the vals free list an evaluator keeps between runs.
// The list grows to the most slices live at once in a run: at most one per
// frame on the deepest chain of live frames — one per sibling the run
// recursed over, so on a flat document up to one per node — and only
// frames whose result has a value hold one.
const maxFreeBytes = 4 << 20

// resBytes is the size of a Res on a 64-bit platform.
const resBytes = 16

func (ev *Evaluator) base(q uint64) runRes {
	return runRes{sat: q & ev.A.Bottom}
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
// starting at node pos, bounded by end, from the state set with id id.
func (ev *Evaluator) run(id int32, pos, end int) runRes {
	if id == 0 {
		return runRes{}
	}
	s := ev.sets[id]
	if pos == xmltree.Nil || pos >= end {
		return ev.base(s.mask)
	}
	doc := ev.Doc
	// A jumped (flattened) region can resume at a closing parenthesis — a
	// "level pop". Chain-scanning states (LoopRight/LoopNone) end their run
	// there as if at Nil; transparent loop states continue past it.
	for !doc.Par.IsOpen(pos) {
		if dead := s.mask &^ ev.A.transparent; dead != 0 {
			r := ev.run(s.pop, pos+1, end)
			r.sat |= dead & ev.A.Bottom
			return r
		}
		pos++
		if pos >= end {
			return ev.base(s.mask)
		}
	}
	if !ev.Opts.NoJump && s.jump.jumpable {
		if s.jump.collector && !ev.Opts.NoLazy {
			return ev.collect(s.mask, &s.jump, pos, end)
		}
		pos = ev.nextInSet(s.jump.triggers, pos, end)
		if pos == xmltree.Nil {
			return ev.base(s.mask)
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
	in := ev.instruction(s, doc.TagOf(pos))
	cl := doc.Close(pos)

	if !ev.Opts.NoEarly && in.markFree1 && in.markFree2 {
		if oc := ev.outcome(in, pos, nil, nil); oc.resolved {
			return ev.apply(oc, pos, nil, nil)
		}
	}
	r1 := ev.run(in.q1, pos+1, cl)
	if !ev.Opts.NoEarly && in.markFree2 {
		if oc := ev.outcome(in, pos, &r1, nil); oc.resolved {
			r := ev.apply(oc, pos, &r1, nil)
			ev.freeVals(&r1)
			return r
		}
	}
	r2 := ev.run(in.q2, cl+1, end)
	r := ev.apply(ev.outcome(in, pos, &r1, &r2), pos, &r1, &r2)
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
	r.vals = ev.allocVals()
	for s := q; s != 0; s &= s - 1 {
		qi := bits.TrailingZeros64(s)
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
			ev.cursors[i] = cursor{at: 1, next: 0, k: -1} // answers no position
		}
	}
	best := end
	for _, t := range set {
		c := &ev.cursors[t]
		if from < c.at || from > c.next {
			ev.seek(c, 2*t, from)
		}
		best = min(best, c.next)
	}
	if best == end {
		return xmltree.Nil
	}
	return best
}

// seek moves cursor c, of the opening tag id tag, to answer from. When the
// run has just passed the cursor's answer, the tag's following occurrence
// usually answers from too, and Step decodes it from the finger without a
// select; Successor searches the row only when it does not, or on a restart
// (from < c.at).
func (ev *Evaluator) seek(c *cursor, tag int32, from int) {
	at, k, next := from, -1, -1
	if c.k >= 0 && from > c.next {
		at, k, next = c.next+1, c.k+1, ev.Doc.Tag.Step(tag, c.k, c.next)
	}
	if k < 0 || 0 <= next && next < from {
		at = from
		k, next = ev.Doc.Tag.Successor(tag, from)
	}
	if next < 0 {
		k, next = -1, math.MaxInt
	}
	*c = cursor{at: at, next: next, k: k}
}

// computeJumpInfo is the jumpability analysis of a state set. It runs once
// per set, when the set is interned, whatever the Options.
func (ev *Evaluator) computeJumpInfo(q uint64) jumpInfo {
	a := ev.A
	ji := jumpInfo{jumpable: true, collector: true}
	for s := q; s != 0; s &= s - 1 {
		qi := bits.TrailingZeros64(s)
		switch a.loop[qi] {
		case LoopConj, LoopDisj:
		default:
			return jumpInfo{}
		}
		if a.trigCofin[qi] {
			return jumpInfo{}
		}
		for _, t := range a.trigTags[qi] {
			if !slices.Contains(ji.triggers, t) {
				ji.triggers = append(ji.triggers, t)
			}
		}
		if a.collectible>>uint(qi)&1 == 0 {
			ji.collector = false
		}
	}
	// A collector set must also be a single state: several collectors with
	// different triggers would need per-state counts.
	if ji.collector && bits.OnesCount64(q) != 1 {
		ji.collector = false
	}
	return ji
}

// instruction returns the instruction of state set s at a node labelled
// tag (TopDownRun lines 4-5), built on first use unless NoMemo is set.
func (ev *Evaluator) instruction(s *stateSet, tag int32) *instr {
	if ev.Opts.NoMemo {
		return ev.computeInstr(s.mask, tag)
	}
	if s.instrs == nil {
		s.instrs = make([]*instr, ev.Doc.NumTags())
	}
	in := s.instrs[tag]
	if in == nil {
		in = ev.computeInstr(s.mask, tag)
		s.instrs[tag] = in
	}
	return in
}

func (ev *Evaluator) computeInstr(q uint64, tag int32) *instr {
	a := ev.A
	in := &instr{}
	var q1, q2 uint64
	pred := false
	for s := q; s != 0; s &= s - 1 {
		qi := bits.TrailingZeros64(s)
		for _, t := range a.Trans[qi] {
			if t.Guard.Contains(tag) {
				in.pairs = append(in.pairs, statePhi{q: qi, phi: t.Phi})
				pred = t.Phi.downStates(&q1, &q2) || pred
			}
		}
	}
	in.q1, in.q2 = ev.intern(q1), ev.intern(q2)
	in.markFree1 = q1&a.canMark == 0
	in.markFree2 = q2&a.canMark == 0
	n1, n2 := bits.OnesCount64(q1), bits.OnesCount64(q2)
	if ev.Opts.NoMemo || pred || n1+n2 > maxOutcomeBits {
		return in
	}
	t := &outcomeTable{n1: uint8(n1), n2: uint8(n2)}
	i := 0
	for _, m := range [2]uint64{q1, q2} {
		for s := m; s != 0; s &= s - 1 {
			t.down[i] = uint8(bits.TrailingZeros64(s))
			i++
		}
	}
	in.table = t
	return in
}

// outcome returns the instruction's outcome at node pos given the child
// results known so far: r1 and r2 are nil while unknown, r2 only with r1.
// A stored outcome is looked up by its key — the phase and the bits of
// r1.sat and r2.sat under the down-states — and built on a miss; any other
// is built into the evaluator's scratch outcome, valid until the next call.
func (ev *Evaluator) outcome(in *instr, pos int, r1, r2 *runRes) *outcome {
	t := in.table
	if t == nil {
		ev.buildOutcome(in, pos, r1, r2, &ev.scratch)
		return &ev.scratch
	}
	phase, k, width := 0, 0, 0
	if r1 != nil {
		phase, width = 1, int(t.n1)
		for i, q := range t.down[:t.n1] {
			k |= int(r1.sat>>q&1) << i
		}
	}
	if r2 != nil {
		phase, width = 2, int(t.n1+t.n2)
		for i, q := range t.down[t.n1:width] {
			k |= int(r2.sat>>q&1) << (int(t.n1) + i)
		}
	}
	tab := t.byPhase[phase]
	if tab == nil {
		tab = make([]*outcome, 1<<width)
		t.byPhase[phase] = tab
	}
	if tab[k] == nil {
		ev.buildOutcome(in, pos, r1, r2, &ev.scratch)
		tab[k] = &outcome{resolved: ev.scratch.resolved, sat: ev.scratch.sat, ops: slices.Clone(ev.scratch.ops)}
	}
	return tab[k]
}

// apply runs a resolved outcome's value ops at node pos. In Count mode a
// mark counts one; in Materialize mode it is a leaf of the result sequence.
func (ev *Evaluator) apply(oc *outcome, pos int, r1, r2 *runRes) runRes {
	res := runRes{sat: oc.sat}
	if len(oc.ops) == 0 {
		return res
	}
	res.vals = ev.allocVals()
	for _, op := range oc.ops {
		var v Res
		switch op.src {
		case opMark:
			v = ev.one(pos)
		case opDown1:
			v = r1.val(op.q)
		default:
			v = r2.val(op.q)
		}
		res.vals[op.dst] = ev.plus(res.vals[op.dst], v)
	}
	return res
}

// three-valued truth
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvUnknown
)

// buildOutcome evaluates all selected formulas at node pos into oc. r1/r2
// may be nil (unknown) only when the corresponding direction is guaranteed
// mark-free by the caller; oc is unresolved when some state's truth or
// marks could not be resolved without the missing direction. Evaluation is
// two-phase: truth first (pure, no mark accounting), then the value ops of
// committed transitions, so marks are counted exactly once, when the ops
// are applied (Figure 4 semantics).
func (ev *Evaluator) buildOutcome(in *instr, pos int, r1, r2 *runRes, oc *outcome) {
	oc.resolved, oc.sat, oc.ops = false, 0, oc.ops[:0]
	var buf [16]tv
	tvs := buf[:0]
	for _, p := range in.pairs {
		tvs = append(tvs, ev.truth(p.phi, pos, r1, r2))
	}
	// Per state (the pairs are grouped by state): true if any transition
	// is true; unresolved if any transition is unknown and either carries
	// marks or the state is not yet known true.
	for i := 0; i < len(in.pairs); {
		anyTrue, anyUnknown := false, false
		j := i
		for ; j < len(in.pairs) && in.pairs[j].q == in.pairs[i].q; j++ {
			switch tvs[j] {
			case tvTrue:
				anyTrue = true
			case tvUnknown:
				if in.pairs[j].phi.hasMark {
					return
				}
				anyUnknown = true
			}
		}
		if anyUnknown && !anyTrue {
			return
		}
		i = j
	}
	oc.resolved = true
	for i, p := range in.pairs {
		if tvs[i] == tvTrue {
			oc.sat |= 1 << uint(p.q)
			oc.ops = ev.valueOps(oc.ops, uint8(p.q), p.phi, pos, r1, r2)
		}
	}
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

// valueOps appends the ops that construct the value of a formula known to
// be true, into state dst (Figure 4, marking part). Unknown subvalues are
// guaranteed mark-free.
func (ev *Evaluator) valueOps(ops []valueOp, dst uint8, phi *Formula, pos int, r1, r2 *runRes) []valueOp {
	switch phi.Kind {
	case FMark:
		return append(ops, valueOp{dst: dst, src: opMark})
	case FDown1:
		if r1 != nil && r1.sat>>uint(phi.Q)&1 == 1 {
			return append(ops, valueOp{dst: dst, src: opDown1, q: uint8(phi.Q)})
		}
	case FDown2:
		if r2 != nil && r2.sat>>uint(phi.Q)&1 == 1 {
			return append(ops, valueOp{dst: dst, src: opDown2, q: uint8(phi.Q)})
		}
	case FAnd:
		// Both sides are true.
		return ev.valueOps(ev.valueOps(ops, dst, phi.L, pos, r1, r2), dst, phi.R, pos, r1, r2)
	case FOr:
		if ev.truth(phi.L, pos, r1, r2) == tvTrue {
			ops = ev.valueOps(ops, dst, phi.L, pos, r1, r2)
		}
		if ev.truth(phi.R, pos, r1, r2) == tvTrue {
			ops = ev.valueOps(ops, dst, phi.R, pos, r1, r2)
		}
	}
	return ops
}
