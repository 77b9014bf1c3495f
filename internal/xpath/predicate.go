package xpath

import (
	"bytes"
	"math"
	"sync"

	"repro/internal/xmltree"
)

// singleText reports whether the string value at a node of step t is always
// a single text of the collection (Section 6.6 step 2: only then can the
// FM-index answer the predicate), and the leaf label that holds it.
func (c *compiler) singleText(t *Step) (int32, bool) {
	d := c.doc
	if t.underAttr {
		return d.AttrValTag(), true
	}
	switch t.Test.Kind {
	case TestText:
		return d.TextTag(), true
	case TestName:
		id := d.TagID(t.Test.Name)
		if id >= 0 && d.PureText(id) {
			return d.TextTag(), true
		}
	}
	return 0, false
}

// The arms a text predicate takes, in the order Strategy ranks them: it
// reports the slowest arm of any predicate of the query.
const (
	armNone = iota
	armFM
	armSpans
	armNaive
)

var armNames = [...]string{"", "fm", "spans", "naive"}

// pred returns te's predicate at a node of step tgt (the carrier step for
// ".", the target path's last step otherwise). makePred builds it once per
// expression, so the automaton, the streaming iterator, the navigational
// steps and the bottom-up plan of a query share one match set.
func (c *compiler) pred(te *TextExpr, tgt *Step) func(int) bool {
	if te.pred == nil {
		te.pred, te.match = c.makePred(te.Op, te.Func, te.Literal, tgt)
	}
	return te.pred
}

// makePred builds the predicate function for op(value, literal), choosing
// the cheapest exact evaluation the target allows, and records the arm it
// takes in c.arm:
//   - An empty literal is a prefix, suffix and substring of every string, so
//     contains, starts-with and ends-with with "" are constant true.
//   - When the FM-index is available and the target is a single text node,
//     the matching texts are computed once into a text-id bitmap (by
//     FM-index search or a plain scan, whichever costs less, Section 3.4),
//     returned as the second result, and the predicate becomes a bit test:
//     at a node that is its text's leaf or that leaf's parent, one rank
//     finds the id (Doc.OwnTextID); otherwise (an element whose first child
//     is its @ container, an empty element) the node's text-id interval is
//     searched for a leaf of the target kind. = "" also holds at a node whose
//     interval has no text of the target kind (an empty element has no text
//     for the match set to hit).
//   - contains(., p) on any other target reads the occurrence spans of p
//     (spans.go): one plain-store pass per compiled query, then one binary
//     search per node.
//   - Otherwise the naive string-value semantics is used (Section 6.6).
func (c *compiler) makePred(op TextOp, fn, lit string, tgt *Step) (func(int) bool, *textMatch) {
	d := c.doc
	leafTag, single := c.singleText(tgt)
	arm := armNaive
	switch {
	case op == OpCustom || (d.FM != nil && single && !c.opts.ForceNaiveText):
		arm = armFM
	case !single && spansUsable(d, c.opts, op, lit):
		arm = armSpans
	}
	c.arm = max(c.arm, arm)
	if lit == "" && op != OpCustom && op != OpEquals {
		return func(int) bool { return true }, nil
	}
	switch arm {
	case armFM:
		m := &textMatch{d: d, opts: c.opts, op: op, fn: fn, lit: lit}
		if !single {
			// Custom predicates (e.g. PSSM) are always set-based; when the
			// target is not a single text node the predicate holds if any
			// text leaf in the node's range matches (the //*[pssm(...)]
			// case of Figure 18).
			return func(node int) bool {
				lo, hi := d.TextIDs(node)
				return m.get().First(lo, hi) >= 0
			}, m
		}
		emptyEq := op == OpEquals && lit == ""
		return func(node int) bool {
			set := m.get()
			if id, ok := d.OwnTextID(node); ok {
				return set.Has(id)
			}
			lo, hi := d.TextIDs(node)
			for id := set.First(lo, hi); id >= 0; id = set.First(id+1, hi) {
				if d.TagOf(d.TextIDToNode(id)) == leafTag {
					return true
				}
			}
			return emptyEq && !hasLeaf(d, lo, hi, leafTag)
		}, m
	case armSpans:
		t := c.spanTable(lit)
		return func(node int) bool { return t.get().contains(node) }, nil
	}
	pb := []byte(lit)
	return func(node int) bool {
		return evalTextOp(op, nodeValue(d, node), pb)
	}, nil
}

// textMatch is the match set of one text expression over one document. It
// is computed on first use, once per compiled query, and read by the
// expression's predicate and by the query's bottom-up plan; the once guards
// concurrent evaluations of a shared Query.
type textMatch struct {
	d    *xmltree.Doc
	opts Options
	op   TextOp
	fn   string
	lit  string

	once sync.Once
	set  xmltree.TextSet
}

func (m *textMatch) get() xmltree.TextSet {
	m.once.Do(func() { m.set = matchSet(m.d, m.opts, m.op, m.fn, m.lit) })
	return m.set
}

// estimate is the exact match count the cost model weighs (cost.go), read
// without computing the set: one backward search for the FM operators,
// counting occurrences for contains and one text per hit for the others. A
// custom function has no count of its own, so it runs for the estimate,
// apart from get's run.
func (m *textMatch) estimate() int {
	fm, p := m.d.FM, []byte(m.lit)
	switch m.op {
	case OpContains:
		return fm.GlobalCount(p)
	case OpStartsWith:
		return fm.StartsWithCount(p)
	case OpEndsWith:
		return fm.EndsWithCount(p)
	case OpEquals:
		return fm.EqualsCount(p)
	case OpCustom:
		if f, ok := m.opts.CustomMatchSets[m.fn]; ok {
			return len(f(m.lit))
		}
		return 0
	}
	return m.d.NumTexts()
}

// hasLeaf reports whether a leaf labelled tag holds one of the text ids
// [lo, hi).
func hasLeaf(d *xmltree.Doc, lo, hi int, tag int32) bool {
	for id := lo; id < hi; id++ {
		if d.TagOf(d.TextIDToNode(id)) == tag {
			return true
		}
	}
	return false
}

func evalTextOp(op TextOp, val, lit []byte) bool {
	switch op {
	case OpContains:
		return bytes.Contains(val, lit)
	case OpStartsWith:
		return bytes.HasPrefix(val, lit)
	case OpEndsWith:
		return bytes.HasSuffix(val, lit)
	case OpEquals:
		return bytes.Equal(val, lit)
	}
	return false
}

// nodeValue computes the XPath string value of a node: its own text for
// text/attribute-value leaves, the attribute value for attribute nodes, and
// the concatenation of descendant texts otherwise.
func nodeValue(d *xmltree.Doc, x int) []byte {
	tag := d.TagOf(x)
	if tag == d.TextTag() || tag == d.AttrValTag() {
		if id := d.NodeToTextID(x); id >= 0 {
			return d.Text(id)
		}
		return nil
	}
	if fc := d.FirstChild(x); fc != xmltree.Nil && d.TagOf(fc) == d.AttrValTag() {
		// attribute node: value is the % leaf
		if id := d.NodeToTextID(fc); id >= 0 {
			return d.Text(id)
		}
		return nil
	}
	return d.TextValue(x)
}

// matchSet returns the set of texts matching op(text, lit). contains and
// ends-with pick between locating every occurrence through the FM-index and
// scanning the plain-text store (Sections 3.4 and 6.3) by comparing the two
// costs (scanThreshold); either arm sets the bits directly. starts-with and
// equality have no scan arm: they read text ids straight from the Doc array
// after the backward search, without locating, so the FM-index is always the
// cheaper arm for them. A custom function's ids outside the document are
// dropped.
func matchSet(d *xmltree.Doc, opts Options, op TextOp, fn, lit string) xmltree.TextSet {
	n := d.NumTexts()
	if op == OpCustom {
		f, ok := opts.CustomMatchSets[fn]
		if !ok {
			return nil
		}
		set := xmltree.NewTextSet(n)
		for _, id := range f(lit) {
			if id >= 0 && int(id) < n {
				set.Add(int(id))
			}
		}
		return set
	}
	fm := d.FM
	p := []byte(lit)
	var ids []int
	switch op {
	case OpStartsWith:
		ids = fm.StartsWith(p)
	case OpEquals:
		ids = fm.Equals(p)
	case OpEndsWith:
		if fm.EndsWithCount(p) > scanThreshold(d, opts) {
			set := xmltree.NewTextSet(n)
			d.Plain.EndsWith(p, set)
			return set
		}
		ids = fm.EndsWith(p)
	case OpContains:
		sp, ep := fm.BackwardSearch(p)
		if ep <= sp {
			return nil
		}
		set := xmltree.NewTextSet(n)
		if ep-sp > scanThreshold(d, opts) {
			d.Plain.Contains(p, d.RareByte(p), set)
		} else {
			for r := sp; r < ep; r++ {
				set.Add(fm.LocateRow(r).Text)
			}
		}
		return set
	}
	if len(ids) == 0 {
		return nil
	}
	set := xmltree.NewTextSet(n)
	for _, id := range ids {
		set.Add(id)
	}
	return set
}

// Cost constants of the match-set rule, in picoseconds. lfStepPs is one LF
// step of a locate walk, read from the benchmark's fmindex.locate_ns_per_occ
// (2.3-5.9 us per occurrence at l = 64, i.e. 70-180 ns per step). scanBytePs
// is one byte of the plain-store scan (TextStore.Contains), read from the
// scan/<pattern> rows of BenchmarkTable2_FMSearch: the median over the
// patterns of each row's median of -count 5 is 478 us over the 1.14 MB
// Medline store.
const (
	lfStepPs   = 150_000
	scanBytePs = 420
)

// scanThreshold returns the occurrence count above which scanning the plain
// store costs less than locating: a locate walks about l/2 LF steps to a
// sampled row plus one step for the sample lookup and text mapping, while a
// scan reads every byte of the store once. Options.PlainCutoff, when set,
// replaces the rule; a document without a plain store always locates.
func scanThreshold(d *xmltree.Doc, opts Options) int {
	switch {
	case d.Plain == nil:
		return math.MaxInt
	case opts.PlainCutoff > 0:
		return opts.PlainCutoff
	}
	return d.FM.Size() * scanBytePs / ((d.FM.SampleRate()/2 + 1) * lfStepPs)
}
