package xpath

import (
	"context"
	"io"
	"sync"

	"repro/internal/automata"
	"repro/internal/xmltree"
)

// Options configure query compilation and evaluation.
type Options struct {
	// Eval toggles the automata optimizations (the Figure 12 ablation axes).
	Eval automata.Options
	// ForceStrategy overrides the cost model's top-down/bottom-up decision
	// (see cost.go). StrategyAuto, the zero value, lets the model decide;
	// StrategyBottomUp only takes effect on queries whose shape supports the
	// bottom-up plan.
	ForceStrategy Strategy
	// ForceNaiveText disables the FM-index for text predicates, using the
	// naive string-value semantics everywhere.
	ForceNaiveText bool
	// PlainCutoff is the occurrence count above which contains and
	// ends-with match sets scan the plain texts instead of locating via the
	// FM-index (Section 3.4). Zero means the cost rule of scanThreshold,
	// which compares the locate and scan costs for this document.
	PlainCutoff int
	// CustomMatchSets registers extension predicates by function name (the
	// paper's PSSM queries, Section 6.7): the function receives the literal
	// argument and returns the sorted ids of matching texts.
	CustomMatchSets map[string]func(lit string) []int32
}

// Query is a compiled Core+ query bound to a document. A Query is safe for
// concurrent use by multiple goroutines: every automaton run has an
// evaluator to itself, taken from the query's pool for its mode, and the
// statistics of the most recently finished evaluation are kept behind a
// mutex (see Stats).
type Query struct {
	Src string
	AST *Path

	doc  *xmltree.Doc
	auto *automata.Automaton
	plan *buPlan
	opts Options
	cost CostEstimate

	// post holds the trailing steps evaluated navigationally: everything
	// from the first backward (or following) step of the main path onward.
	// The automaton/bottom-up plan evaluates the downward prefix; each post
	// step is then a set transformation over BP navigation (nav.go). nil
	// for pure downward queries, whose pipeline is unchanged.
	post []*Step

	// mayOvercount: counters are not guaranteed disjoint (see compileSteps);
	// Count falls back to materialized set semantics.
	mayOvercount bool

	// text is the slowest arm a text predicate of the query takes, as
	// makePred recorded it: "fm", "spans", "naive", or "" without text
	// predicates.
	text string

	// evals holds finished evaluators, indexed by automata.Mode, so the
	// runs of a cached query share their JIT tables, vals free lists and
	// jump cursors (see runAuto). The pool empties itself under GC and goes
	// with the Query when a cache evicts it.
	evals [2]sync.Pool

	statsMu   sync.Mutex
	lastStats automata.Stats // guarded by statsMu
}

// Strategy describes the chosen evaluation plan, in the notation of
// Figure 14: "top-down" or "bottom-up", plus "fm", "spans" or "naive" when
// the query has text predicates. "fm" means a match set answers the
// predicates: the text index is usable for it (a frequent contains or
// ends-with literal is still answered by a plain-store scan, see matchSet),
// or an extension function computes it. "spans" means some contains on a
// multi-text target reads occurrence spans (spans.go) and none falls to the
// naive string values; "naive" means at least one does.
func (q *Query) Strategy() string {
	s := "top-down"
	if q.plan != nil {
		s = "bottom-up"
	}
	if q.post != nil {
		if q.plan == nil && q.auto == nil {
			s = "nav"
		} else {
			s += "+nav"
		}
	}
	if q.text != "" {
		return s + "," + q.text
	}
	return s
}

// Compile parses, normalizes, plans and compiles a query against a document.
//
// The main path is split at the first step the marking automaton cannot
// express (a backward or following axis): the downward prefix goes through
// the usual planner (bottom-up when the text predicate is selective,
// TopDownRun otherwise) and the remaining steps become navigational set
// transformations over the BP structure. Pure downward queries take exactly
// the pre-existing pipeline. Before the split, every filter of the main
// path is compiled once into a node test (compilePass), which validates the
// extension functions and records the text-predicate arms Strategy reports.
func Compile(src string, doc *xmltree.Doc, opts Options) (*Query, error) {
	ast, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	norm, err := normalize(ast)
	if err != nil {
		return nil, err
	}
	c := &compiler{doc: doc, f: automata.NewFactory(), opts: opts}
	for _, st := range norm.Steps {
		if err := c.compilePass(st); err != nil {
			return nil, err
		}
	}
	q := &Query{Src: src, AST: norm, doc: doc, opts: opts, text: armNames[c.arm]}
	split := 0
	for split < len(norm.Steps) && automatonAxis(norm.Steps[split].Axis) {
		split++
	}
	if norm.Steps[0].Axis == AxisFollowingSibling {
		// The automaton launches its first state below the root, where a
		// sibling-axis start has no meaning; evaluate navigationally (the
		// synthetic root has no siblings, so such queries select nothing).
		split = 0
	}
	if split < len(norm.Steps) {
		q.post = norm.Steps[split:]
		if split == 0 {
			// Fully navigational; record the (top-down) decision for Cost
			// against the whole path, since there is no downward prefix.
			q.cost = chooseStrategy(doc, norm, opts, nil)
			return q, nil
		}
		norm = &Path{Steps: norm.Steps[:split]}
	}
	plan := buildBottomUpPlan(c, norm)
	q.cost = chooseStrategy(doc, norm, opts, plan)
	if plan != nil && q.cost.Chosen == StrategyBottomUp {
		q.plan = plan
	} else {
		auto, err := c.compile(norm)
		if err != nil {
			return nil, err
		}
		q.auto = auto
		q.mayOvercount = c.mayOvercount
	}
	return q, nil
}

// Cost returns the statistics and decision the cost model recorded when the
// query was compiled.
func (q *Query) Cost() CostEstimate { return q.cost }

// CountCtx returns the number of result nodes (counting mode, Section
// 5.5.3). No strategy materializes a node slice here: the bottom-up plan
// counts distinct verified candidates during the climb and the automaton
// runs in counting mode (the deduplicating fallbacks for navigational and
// possibly-overcounting queries still materialize, as before).
func (q *Query) CountCtx(ctx context.Context) (int64, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	if q.post != nil || (q.plan == nil && q.mayOvercount) {
		// Navigational steps and non-disjoint counters deduplicate by
		// materializing.
		nodes, err := q.NodesCtx(ctx)
		if err != nil {
			return 0, err
		}
		return int64(len(nodes)), nil
	}
	if q.plan != nil {
		n, err := q.plan.countCtx(ctx)
		if err != nil {
			return 0, err
		}
		q.setStats(automata.Stats{Visited: n, Marked: n})
		return n, nil
	}
	n, _, stats, err := q.runAuto(ctx, automata.Count)
	if err != nil {
		return 0, err
	}
	q.setStats(stats)
	return n, nil
}

// NodesCtx materializes the result nodes in document order: a nil error
// means the slice is the complete result set.
func (q *Query) NodesCtx(ctx context.Context) ([]int, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if q.post != nil {
		nodes, stats, err := q.prefixNodes(ctx)
		if err != nil {
			return nil, err
		}
		for _, st := range q.post {
			nodes, err = navApplyStep(ctx, q.doc, nodes, st)
			if err != nil {
				return nil, err
			}
		}
		stats.Marked = int64(len(nodes))
		q.setStats(stats)
		return nodes, nil
	}
	if q.plan != nil {
		nodes, err := q.plan.runCtx(ctx)
		if err != nil {
			return nil, err
		}
		q.setStats(automata.Stats{Visited: int64(len(nodes)), Marked: int64(len(nodes))})
		return nodes, nil
	}
	_, nodes, stats, err := q.runAuto(ctx, automata.Materialize)
	if err != nil {
		return nil, err
	}
	q.setStats(stats)
	return nodes, nil
}

// runAuto runs the automaton in mode on an evaluator from the query's pool,
// or a new one. The evaluator goes back to the pool only after a run that
// returned: one that was cancelled or panicked is dropped.
func (q *Query) runAuto(ctx context.Context, mode automata.Mode) (int64, []int, automata.Stats, error) {
	ev, _ := q.evals[mode].Get().(*automata.Evaluator)
	if ev == nil {
		ev = automata.NewEvaluator(q.auto, q.doc, mode, q.opts.Eval)
	}
	n, nodes, err := ev.Run(ctx)
	if err != nil {
		return 0, nil, automata.Stats{}, err
	}
	stats := ev.Stats
	q.evals[mode].Put(ev)
	return n, nodes, stats, nil
}

// Exists reports whether the query selects at least one node, without
// evaluating the full result set: the bottom-up plan stops its climb at the
// first verified candidate, and streamable top-down queries pull one result
// from the lazy iterator. Only the navigational and non-streamable shapes
// fall back to materializing.
func (q *Query) Exists(ctx context.Context) (bool, error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if q.plan != nil && q.post == nil {
		return q.plan.existsCtx(ctx)
	}
	it := q.Iter(ctx)
	defer it.Close()
	_, ok := it.Next()
	if err := it.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// Iter returns a lazy document-order iterator over the result nodes. Pure
// downward queries (child and descendant axes only) stream via scanIter;
// every other shape evaluates eagerly on the first Next and iterates the
// materialized set. The iterator must be closed (or drained) before the
// underlying index is.
func (q *Query) Iter(ctx context.Context) ResultIter {
	if q.streamable() {
		return newScanIter(ctx, q.doc, q.AST.Steps)
	}
	nodes, err := q.NodesCtx(ctx)
	return &materializedIter{nodes: nodes, err: err}
}

// streamable reports whether the query is in the fragment scanIter
// evaluates: a pure downward main path with no navigational post segment.
func (q *Query) streamable() bool {
	if q.post != nil || len(q.AST.Steps) == 0 {
		return false
	}
	for _, st := range q.AST.Steps {
		if st.Axis != AxisChild && st.Axis != AxisDescendant {
			return false
		}
	}
	return true
}

// prefixNodes evaluates the downward prefix of a query with navigational
// post steps; an empty prefix yields the root context.
func (q *Query) prefixNodes(ctx context.Context) ([]int, automata.Stats, error) {
	switch {
	case q.plan != nil:
		nodes, err := q.plan.runCtx(ctx)
		if err != nil {
			return nil, automata.Stats{}, err
		}
		return nodes, automata.Stats{Visited: int64(len(nodes))}, nil
	case q.auto != nil:
		_, nodes, stats, err := q.runAuto(ctx, automata.Materialize)
		return nodes, stats, err
	default:
		return []int{q.doc.Root()}, automata.Stats{}, nil
	}
}

// SerializeCtx streams the XML serialization of the result nodes to w, each
// followed by a newline, and returns the number of results. It pulls from
// the lazy iterator, so streamable queries hold at most one result at a
// time, and writes through one xmltree.Serializer: w receives one Write per
// 32 KB chunk, and cancellation is observed between results and at every
// chunk, also inside one large subtree. On error, the count includes
// results that were buffered but never reached w.
func (q *Query) SerializeCtx(ctx context.Context, w io.Writer) (int, error) {
	it := q.Iter(ctx)
	defer it.Close()
	s := q.doc.NewSerializer(ctx, w)
	n := 0
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		if err := s.Subtree(x); err != nil {
			return n, err
		}
		if err := s.WriteByte('\n'); err != nil {
			return n, err
		}
		n++
	}
	if err := it.Err(); err != nil {
		return n, err
	}
	return n, s.Flush()
}

func (q *Query) setStats(s automata.Stats) {
	q.statsMu.Lock()
	q.lastStats = s
	q.statsMu.Unlock()
}

// Stats returns the evaluation statistics of the most recently finished
// CountCtx/NodesCtx call (any goroutine's).
func (q *Query) Stats() automata.Stats {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.lastStats
}

// Automaton exposes the compiled automaton (nil for bottom-up plans); used
// by tests and the benchmark harness.
func (q *Query) Automaton() *automata.Automaton { return q.auto }

// UsesBottomUp reports whether the bottom-up plan was selected.
func (q *Query) UsesBottomUp() bool { return q.plan != nil }
