package xpath

import (
	"bytes"
	"math"
	"sort"
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
// expression, so the automaton, the streaming iterator and the navigational
// steps of a query share one match set.
func (c *compiler) pred(te *TextExpr, tgt *Step) func(int) bool {
	if te.pred == nil {
		te.pred = c.makePred(te.Op, te.Func, te.Literal, tgt)
	}
	return te.pred
}

// makePred builds the predicate function for op(value, literal), choosing
// the cheapest exact evaluation the target allows, and records the arm it
// takes in c.arm:
//   - An empty literal is a prefix, suffix and substring of every string, so
//     contains, starts-with and ends-with with "" are constant true.
//   - When the FM-index is available and the target is a single text node,
//     the matching text identifiers are computed once (by FM-index search or
//     a plain scan, whichever costs less, Section 3.4) and the predicate
//     becomes a range check against the node's text identifier interval.
//     = "" also holds at a node whose range has no text of the target kind
//     (an empty element has no text for the match set to hit).
//   - contains(., p) on any other target reads the occurrence spans of p
//     (spans.go): one plain-store pass per compiled query, then one binary
//     search per node.
//   - Otherwise the naive string-value semantics is used (Section 6.6).
func (c *compiler) makePred(op TextOp, fn, lit string, tgt *Step) func(int) bool {
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
		return func(int) bool { return true }
	}
	switch arm {
	case armFM:
		// Custom predicates (e.g. PSSM) are always set-based; when the
		// target is not a single text node the predicate holds if any text
		// leaf in the node's range matches (the //*[pssm(...)] case of
		// Figure 18). The set is computed once per compiled query, guarded
		// for concurrent evaluations of a shared Query.
		anyLeaf := !single
		emptyEq := op == OpEquals && lit == ""
		var once sync.Once
		var set []int32
		opts := c.opts
		return func(node int) bool {
			once.Do(func() { set = matchSet(d, opts, op, fn, lit) })
			lo, hi := d.TextIDs(node)
			i := sort.Search(len(set), func(k int) bool { return int(set[k]) >= lo })
			for ; i < len(set) && int(set[i]) < hi; i++ {
				if anyLeaf || d.TagOf(d.TextIDToNode(int(set[i]))) == leafTag {
					return true
				}
			}
			return emptyEq && !hasLeaf(d, lo, hi, leafTag)
		}
	case armSpans:
		t := c.spanTable(lit)
		return func(node int) bool { return t.get().contains(node) }
	}
	pb := []byte(lit)
	return func(node int) bool {
		return evalTextOp(op, nodeValue(d, node), pb)
	}
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

// matchSet returns the sorted identifiers of texts matching op(text, lit).
// contains and ends-with pick between locating every occurrence through the
// FM-index and scanning the plain-text store (Sections 3.4 and 6.3) by
// comparing the two costs (scanThreshold). starts-with and equality have no
// scan arm: they read text ids straight from the Doc array after the
// backward search, without locating, so the FM-index is always the cheaper
// arm for them.
func matchSet(d *xmltree.Doc, opts Options, op TextOp, fn, lit string) []int32 {
	if op == OpCustom {
		if f, ok := opts.CustomMatchSets[fn]; ok {
			return f(lit)
		}
		return nil
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
			return plainScan(d, op, p)
		}
		ids = fm.EndsWith(p)
	case OpContains:
		g := fm.GlobalCount(p)
		if g == 0 {
			return nil
		}
		if g > scanThreshold(d, opts) {
			return plainScan(d, op, p)
		}
		ids = fm.Contains(p)
	}
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// Cost constants of the match-set rule, in nanoseconds. lfStepNs is one LF
// step of a locate walk, read from the benchmark's fmindex.locate_ns_per_occ
// (2.3-5.9 us per occurrence at l = 64, i.e. 70-180 ns per step). scanByteNs
// is one byte of a bytes.Contains pass over the plain store, read from the
// naive/<pattern> rows of BenchmarkTable2_FMSearch (~1 ms over 2 MB Medline).
const (
	lfStepNs   = 150
	scanByteNs = 1
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
	return d.FM.Size() * scanByteNs / ((d.FM.SampleRate()/2 + 1) * lfStepNs)
}

// plainScan evaluates the predicate over the redundant plain-text store.
func plainScan(d *xmltree.Doc, op TextOp, p []byte) []int32 {
	var out []int32
	for id, n := 0, d.Plain.Len(); id < n; id++ {
		if evalTextOp(op, d.Plain.Get(id), p) {
			out = append(out, int32(id))
		}
	}
	return out
}
