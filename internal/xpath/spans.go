package xpath

import (
	"bytes"
	"sort"
	"sync"

	"repro/internal/xmltree"
)

// Occurrence spans: contains(., p) on an element whose string value is not a
// single text, answered without building string values.
//
// Let C be the concatenation of the element-text leaves (#) in text-id
// order; attribute values (%) are left out, as the string value leaves them
// out. Every occurrence of p in C starts in some text id first and ends in
// some text id last >= first. A node x whose text ids are [lo, hi) has as
// string value the concatenation of the # leaves among [lo, hi), which is
// one contiguous piece of C; so p occurs in it iff some occurrence has
// first >= lo and last < hi. The % leaves inside [lo, hi) hold no byte of C,
// so numbering by text id (not by # rank) keeps the rule exact.
//
// One pass over the plain store builds the table. An occurrence that
// contains another one's span is implied by it, so only the minimal spans
// are kept: sorted by first, their last values increase too, and entry k's
// last is the suffix minimum of last over every occurrence starting at or
// after first[k]. The top-down test is then one binary search (inSpan), and
// the nodes a span selects are exactly the ancestors-or-self of
// LCA(leaf(first), leaf(last)), which is what the bottom-up arm climbs
// (forEachSpanCandidate).
//
// An attribute node is a node test's match too (//*, //node() and a name
// test reach the attribute names below @), and its string value is its one
// % text. The pass therefore also records the attribute values containing
// p; each is the span of its own text id, whose only candidate is the
// attribute node above it.

// spanTable is the occurrence-span table of one literal over one document,
// built at most once per compiled query and shared by the top-down
// predicate and the bottom-up plan.
type spanTable struct {
	doc  *xmltree.Doc
	lit  []byte
	once sync.Once

	count int     // occurrences of lit in C and in attribute values, overlapping ones included
	first []int32 // text id of each minimal span's first byte, increasing
	last  []int32 // text id of its last byte, increasing
	attrs []int32 // text ids of the attribute values containing lit
}

// spansUsable reports whether contains(., lit) on a multi-text target can
// run on occurrence spans: the plan needs the plain store to scan, and the
// naive axis must not have been forced.
func spansUsable(d *xmltree.Doc, opts Options, op TextOp, lit string) bool {
	return op == OpContains && lit != "" && d.Plain != nil && !opts.ForceNaiveText
}

// spanTable returns the compiler's table for lit, creating it on first use:
// every contains(., lit) of one compiled query shares one scan.
func (c *compiler) spanTable(lit string) *spanTable {
	if t, ok := c.spans[lit]; ok {
		return t
	}
	if c.spans == nil {
		c.spans = map[string]*spanTable{}
	}
	t := &spanTable{doc: c.doc, lit: []byte(lit)}
	c.spans[lit] = t
	return t
}

// get returns the table, scanning the plain store on the first call.
func (t *spanTable) get() *spanTable {
	t.once.Do(t.scan)
	return t
}

// scan makes the one pass over C. Occurrences inside one text are found by
// bytes.Index on that text; an occurrence that crosses a boundary is found
// at the text holding its last byte, in the join of the carried window (the
// last |p|-1 bytes of C before that text, with the text id of each byte) and
// the text's first |p|-1 bytes. Only the occurrence with the largest first
// of each text can be minimal, and it is minimal unless the previous minimal
// span starts at or after it.
func (t *spanTable) scan() {
	d, p := t.doc, t.lit
	w := len(p) - 1
	win := make([]byte, 0, 2*w)
	winIDs := make([]int32, 0, 2*w)
	var join []byte
	attrs := attrValueIDs(d)
	for id, n := 0, d.Plain.Len(); id < n; id++ {
		text := d.Plain.Get(id)
		if len(attrs) > 0 && int(attrs[0]) == id {
			attrs = attrs[1:]
			if k := bytes.Index(text, p); k >= 0 {
				t.count += countFrom(text[k:], p)
				t.attrs = append(t.attrs, int32(id))
			}
			continue
		}
		if len(text) == 0 {
			continue
		}
		first := int32(-1)
		if len(win) > 0 {
			join = append(append(join[:0], win...), text[:min(len(text), w)]...)
			for s := 0; s < len(win) && s+len(p) <= len(join); s++ {
				k := bytes.Index(join[s:], p)
				if k < 0 || s+k >= len(win) {
					break
				}
				s += k
				t.count++
				first = winIDs[s]
			}
		}
		if k := bytes.Index(text, p); k >= 0 {
			t.count += countFrom(text[k:], p)
			first = int32(id)
		}
		if first >= 0 && (len(t.first) == 0 || t.first[len(t.first)-1] < first) {
			t.first = append(t.first, first)
			t.last = append(t.last, int32(id))
		}
		if w > 0 {
			win, winIDs = carry(win, winIDs, text, int32(id), w)
		}
	}
}

// countFrom counts the occurrences of p in s, which starts with one,
// overlapping occurrences included (the count an FM backward search gives).
func countFrom(s, p []byte) int {
	n := 0
	for {
		n++
		k := bytes.Index(s[1:], p)
		if k < 0 {
			return n
		}
		s = s[1+k:]
	}
}

// carry appends text (of text id id) to the window and keeps its last w
// bytes.
func carry(win []byte, ids []int32, text []byte, id int32, w int) ([]byte, []int32) {
	if len(text) >= w {
		text = text[len(text)-w:]
		win, ids = win[:0], ids[:0]
	} else if drop := len(win) + len(text) - w; drop > 0 {
		win = append(win[:0], win[drop:]...)
		ids = append(ids[:0], ids[drop:]...)
	}
	for range text {
		ids = append(ids, id)
	}
	return append(win, text...), ids
}

// attrValueIDs returns the text ids of the attribute-value leaves in
// increasing order.
func attrValueIDs(d *xmltree.Doc) []int32 {
	tag := d.AttrValTag()
	n := d.TagCount(tag)
	if n == 0 {
		return nil
	}
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32(d.NodeToTextID(d.Tag.Select(2*tag, j)))
	}
	return ids
}

// inSpan reports whether some minimal span lies in the text ids [lo, hi).
func (t *spanTable) inSpan(lo, hi int) bool {
	k := sort.Search(len(t.first), func(k int) bool { return int(t.first[k]) >= lo })
	return k < len(t.first) && int(t.last[k]) < hi
}

// contains is the top-down predicate contains(., lit) at node x. A node
// holding text ids is matched by the span rule. The only nodes whose string
// value is not their # leaves are an attribute-value leaf and its attribute
// node, which hold exactly one text id and no element text; they keep
// nodeValue's rule.
func (t *spanTable) contains(x int) bool {
	d := t.doc
	lo, hi := d.TextIDs(x)
	if t.inSpan(lo, hi) {
		return true
	}
	if hi-lo != 1 {
		return false
	}
	leaf := d.TextIDToNode(lo)
	if d.TagOf(leaf) != d.AttrValTag() || (leaf != x && d.Parent(leaf) != x) {
		return false
	}
	return bytes.Contains(d.Text(lo), t.lit)
}

// forEachSpanCandidate calls emit for every node whose string value contains
// the literal: the ancestors-or-self of each minimal span's LCA, and the
// attribute node of each matching attribute value. Each climb stops at a
// node already emitted, whose ancestors were emitted with it, so every node
// is emitted once. emit returns false to stop; cancellation is polled
// through v, one step per span, climbed node and attribute value.
func (t *spanTable) forEachSpanCandidate(v *upVerifier, emit func(int) bool) {
	d := t.doc
	emitted := map[int]bool{}
	for k := range t.first {
		if v.cancelled() {
			return
		}
		a, b := d.TextIDToNode(int(t.first[k])), d.TextIDToNode(int(t.last[k]))
		for !d.IsAncestor(a, b) {
			a = d.Parent(a)
		}
		for ; a != xmltree.Nil && !emitted[a]; a = d.Parent(a) {
			if v.cancelled() {
				return
			}
			emitted[a] = true
			if !emit(a) {
				return
			}
		}
	}
	for _, id := range t.attrs {
		if v.cancelled() || !emit(d.Parent(d.TextIDToNode(int(id)))) {
			return
		}
	}
}
