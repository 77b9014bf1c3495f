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
// One pass over the plain store (TextStore.Occurrences, with the element
// texts joined into C) builds the table. An occurrence whose span contains
// another's is implied by it, so only the minimal spans are kept, sorted by
// first and by last alike. The top-down test is then one binary search
// (inSpan), and the nodes a span selects are exactly the ancestors-or-self
// of LCA(leaf(first), leaf(last)), which is what the bottom-up arm climbs
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

// scan makes the pass. Occurrences in C arrive by increasing first, so a
// stack keeps the minimal spans: the spans on top that contain the new one
// (last >= its last) are popped, and it is pushed unless the top starts in
// the same text, and so lies inside it. Every occurrence counts.
func (t *spanTable) scan() {
	d, p := t.doc, t.lit
	join := elementTexts(d)
	d.Plain.Occurrences(p, d.RareByte(p), join, func(first, last int) bool {
		t.count++
		f, l := int32(first), int32(last)
		if !join.Has(first) { // an attribute value, matched on its own
			if n := len(t.attrs); n == 0 || t.attrs[n-1] != f {
				t.attrs = append(t.attrs, f)
			}
			return true
		}
		k := len(t.first)
		for k > 0 && t.last[k-1] >= l {
			k--
		}
		t.first, t.last = t.first[:k], t.last[:k]
		if k == 0 || t.first[k-1] != f {
			t.first, t.last = append(t.first, f), append(t.last, l)
		}
		return true
	})
}

// elementTexts returns the set of element (#) texts: every text id but the
// attribute values, which one walk of the % row of the tag sequence finds.
// The bits past the last text id are set too; Occurrences reads none.
func elementTexts(d *xmltree.Doc) xmltree.TextSet {
	set, tag := xmltree.NewTextSet(d.NumTexts()), 2*d.AttrValTag()
	for w := range set {
		set[w] = ^uint64(0)
	}
	for k, pos := d.Tag.Successor(tag, 0); pos >= 0; k, pos = k+1, d.Tag.Step(tag, k, pos) {
		id := d.NodeToTextID(pos)
		set[id>>6] &^= 1 << uint(id&63)
	}
	return set
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
// attribute node of each matching attribute value. Each climb stops at the
// first ancestor-or-self of the previous span's LCA, so every node is
// emitted once: the spans are sorted by first and by last, so a node that
// covers an earlier span and this one covers the previous span too. emit
// returns false to stop; cancellation is polled through v, one step per
// span, climbed node and attribute value.
func (t *spanTable) forEachSpanCandidate(v *upVerifier, emit func(int) bool) {
	d, prev := t.doc, xmltree.Nil
	for k := range t.first {
		if v.cancelled() {
			return
		}
		a, b := d.TextIDToNode(int(t.first[k])), d.TextIDToNode(int(t.last[k]))
		for !d.IsAncestor(a, b) {
			a = d.Parent(a)
		}
		lca := a
		for ; a != xmltree.Nil && !d.IsAncestor(a, prev); a = d.Parent(a) {
			if v.cancelled() || !emit(a) {
				return
			}
		}
		prev = lca
	}
	for _, id := range t.attrs {
		if v.cancelled() || !emit(d.Parent(d.TextIDToNode(int(id)))) {
			return
		}
	}
}
