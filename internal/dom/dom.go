// Package dom is the conventional baseline the paper compares against: a
// pointer-based in-memory tree (two 64-bit pointers per node, as in the
// Table IV/V comparisons) with a straightforward recursive XPath evaluator.
// It stands in for the conventional-engine comparators of Section 6
// (MonetDB/XQuery, Qizx/DB) and doubles as the correctness oracle for the
// differential tests of the automata evaluator.
//
// The tree uses the same document model as the succinct index (synthetic &
// root, @/%-encoded attributes, # text leaves), so the same normalized
// queries apply to both.
package dom

import (
	"bytes"

	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// Node is a pointer-based tree node (first-child / next-sibling layout).
type Node struct {
	FirstChild  *Node
	NextSibling *Node
	Parent      *Node
	Tag         string
	Text        []byte // text/attribute-value leaves only
	Order       int    // preorder number
}

// Tree is the pointer-based document.
type Tree struct {
	Root     *Node // synthetic & node
	NumNodes int
	NumTexts int
}

type domBuilder struct {
	t     *Tree
	stack []*Node
	order int
}

// Parse builds a pointer tree from an XML document.
func Parse(data []byte) (*Tree, error) {
	t := &Tree{}
	b := &domBuilder{t: t}
	b.push("&")
	if err := xmlparse.Parse(data, b); err != nil {
		return nil, err
	}
	b.pop()
	return t, nil
}

func (b *domBuilder) push(tag string) *Node {
	n := &Node{Tag: tag, Order: b.order}
	b.order++
	b.t.NumNodes++
	if len(b.stack) > 0 {
		p := b.stack[len(b.stack)-1]
		n.Parent = p
		if p.FirstChild == nil {
			p.FirstChild = n
		} else {
			c := p.FirstChild
			for c.NextSibling != nil {
				c = c.NextSibling
			}
			c.NextSibling = n
		}
	} else {
		b.t.Root = n
	}
	b.stack = append(b.stack, n)
	return n
}

func (b *domBuilder) pop() { b.stack = b.stack[:len(b.stack)-1] }

func (b *domBuilder) StartElement(name string, attrs []xmlparse.Attr) error {
	b.push(name)
	if len(attrs) > 0 {
		b.push("@")
		for _, a := range attrs {
			b.push(a.Name)
			leaf := b.push("%")
			leaf.Text = []byte(a.Value)
			b.t.NumTexts++
			b.pop()
			b.pop()
		}
		b.pop()
	}
	return nil
}

func (b *domBuilder) EndElement(string) error {
	b.pop()
	return nil
}

func (b *domBuilder) Text(data []byte) error {
	leaf := b.push("#")
	leaf.Text = append([]byte(nil), data...)
	b.t.NumTexts++
	b.pop()
	return nil
}

// Value returns the XPath string value of a node.
func (n *Node) Value() []byte {
	if n.Tag == "#" || n.Tag == "%" {
		return n.Text
	}
	if n.FirstChild != nil && n.FirstChild.Tag == "%" {
		return n.FirstChild.Text // attribute node
	}
	var buf bytes.Buffer
	var walk func(*Node)
	walk = func(x *Node) {
		for c := x.FirstChild; c != nil; c = c.NextSibling {
			if c.Tag == "#" {
				buf.Write(c.Text)
			} else if c.Tag != "@" {
				walk(c)
			}
		}
	}
	walk(n)
	return buf.Bytes()
}

// Eval evaluates a Core+ query (naive recursive semantics) and returns the
// result nodes in document order.
func (t *Tree) Eval(src string) ([]*Node, error) {
	ast, err := xpath.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	norm, err := xpath.Normalize(ast)
	if err != nil {
		return nil, err
	}
	cur := []*Node{t.Root}
	for _, st := range norm.Steps {
		var next []*Node
		seen := map[*Node]bool{}
		for _, n := range cur {
			collectAxis(n, st, func(m *Node) {
				if !seen[m] {
					seen[m] = true
					next = append(next, m)
				}
			})
		}
		// filter
		var kept []*Node
		for _, n := range next {
			ok := true
			for _, f := range st.Filters {
				if !evalExpr(n, f) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, n)
			}
		}
		cur = kept
	}
	sortByOrder(cur)
	return cur, nil
}

func sortByOrder(ns []*Node) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Order < ns[j-1].Order; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Count evaluates a query in counting mode.
func (t *Tree) Count(src string) (int, error) {
	ns, err := t.Eval(src)
	if err != nil {
		return 0, err
	}
	return len(ns), nil
}

func collectAxis(n *Node, st *xpath.Step, emit func(*Node)) {
	switch st.Axis {
	case xpath.AxisChild:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if matches(c, st.Test) {
				emit(c)
			}
		}
	case xpath.AxisDescendant:
		var walk func(*Node)
		walk = func(x *Node) {
			for c := x.FirstChild; c != nil; c = c.NextSibling {
				if matches(c, st.Test) {
					emit(c)
				}
				walk(c)
			}
		}
		walk(n)
	case xpath.AxisDescendantOrSelf:
		emitSubtree(n, st.Test, emit)
	case xpath.AxisSelf:
		if matches(n, st.Test) {
			emit(n)
		}
	case xpath.AxisFollowingSibling:
		for s := n.NextSibling; s != nil; s = s.NextSibling {
			if matches(s, st.Test) {
				emit(s)
			}
		}
	case xpath.AxisPrecedingSibling:
		if n.Parent != nil {
			for s := n.Parent.FirstChild; s != nil && s != n; s = s.NextSibling {
				if matches(s, st.Test) {
					emit(s)
				}
			}
		}
	case xpath.AxisParent:
		if n.Parent != nil && matches(n.Parent, st.Test) {
			emit(n.Parent)
		}
	case xpath.AxisAncestor:
		for a := n.Parent; a != nil; a = a.Parent {
			if matches(a, st.Test) {
				emit(a)
			}
		}
	case xpath.AxisAncestorOrSelf:
		for a := n; a != nil; a = a.Parent {
			if matches(a, st.Test) {
				emit(a)
			}
		}
	case xpath.AxisPreceding:
		// Every node before n in document order that does not enclose it
		// lies in the subtree of a preceding sibling of an ancestor-or-self.
		for a := n; a != nil; a = a.Parent {
			if a.Parent == nil {
				break
			}
			for s := a.Parent.FirstChild; s != nil && s != a; s = s.NextSibling {
				emitSubtree(s, st.Test, emit)
			}
		}
	case xpath.AxisFollowing:
		// Symmetrically: subtrees of following siblings of ancestors-or-self.
		for a := n; a != nil; a = a.Parent {
			for s := a.NextSibling; s != nil; s = s.NextSibling {
				emitSubtree(s, st.Test, emit)
			}
		}
	}
}

// emitSubtree emits n and every descendant matching the test.
func emitSubtree(n *Node, t xpath.NodeTest, emit func(*Node)) {
	if matches(n, t) {
		emit(n)
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		emitSubtree(c, t, emit)
	}
}

func matches(n *Node, t xpath.NodeTest) bool {
	switch t.Kind {
	case xpath.TestName:
		return n.Tag == t.Name
	case xpath.TestStar:
		return n.Tag != "#" && n.Tag != "@" && n.Tag != "%" && n.Tag != "&"
	case xpath.TestText:
		return n.Tag == "#"
	case xpath.TestNode:
		return n.Tag != "@" && n.Tag != "%" && n.Tag != "&"
	}
	return false
}

func evalExpr(n *Node, e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.AndExpr:
		return evalExpr(n, x.L) && evalExpr(n, x.R)
	case *xpath.OrExpr:
		return evalExpr(n, x.L) || evalExpr(n, x.R)
	case *xpath.NotExpr:
		return !evalExpr(n, x.E)
	case *xpath.PathExpr:
		return existsPath(n, x.Path.Steps)
	case *xpath.TextExpr:
		if x.Target == nil {
			return textOp(x.Op, n.Value(), []byte(x.Literal))
		}
		found := false
		walkPath(n, x.Target.Steps, func(m *Node) bool {
			if textOp(x.Op, m.Value(), []byte(x.Literal)) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	return false
}

func textOp(op xpath.TextOp, val, lit []byte) bool {
	switch op {
	case xpath.OpContains:
		return bytes.Contains(val, lit)
	case xpath.OpStartsWith:
		return bytes.HasPrefix(val, lit)
	case xpath.OpEndsWith:
		return bytes.HasSuffix(val, lit)
	case xpath.OpEquals:
		return bytes.Equal(val, lit)
	}
	return false
}

func existsPath(n *Node, steps []*xpath.Step) bool {
	exists := false
	walkPath(n, steps, func(*Node) bool {
		exists = true
		return false
	})
	return exists
}

// walkPath visits the nodes selected by the relative path from n; the
// visitor returns false to stop early.
func walkPath(n *Node, steps []*xpath.Step, visit func(*Node) bool) {
	var rec func(cur *Node, i int) bool
	rec = func(cur *Node, i int) bool {
		if i == len(steps) {
			return visit(cur)
		}
		cont := true
		collectAxis(cur, steps[i], func(m *Node) {
			if !cont {
				return
			}
			ok := true
			for _, f := range steps[i].Filters {
				if !evalExpr(m, f) {
					ok = false
					break
				}
			}
			if ok && !rec(m, i+1) {
				cont = false
			}
		})
		return cont
	}
	rec(n, 0)
}

// Serialize writes the subtree of n as XML (for the serialization
// benchmarks).
func (n *Node) Serialize(buf *bytes.Buffer) {
	switch n.Tag {
	case "#", "%":
		buf.Write(xmlparse.AppendEscape(buf.AvailableBuffer(), n.Text, false))
		return
	case "&":
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			c.Serialize(buf)
		}
		return
	case "@":
		return
	}
	buf.WriteByte('<')
	buf.WriteString(n.Tag)
	content := n.FirstChild
	if content != nil && content.Tag == "@" {
		for a := content.FirstChild; a != nil; a = a.NextSibling {
			buf.WriteByte(' ')
			buf.WriteString(a.Tag)
			buf.WriteString(`="`)
			buf.Write(xmlparse.AppendEscape(buf.AvailableBuffer(), a.FirstChild.Text, true))
			buf.WriteByte('"')
		}
		content = content.NextSibling
	}
	if content == nil {
		buf.WriteString("/>")
		return
	}
	buf.WriteByte('>')
	for c := content; c != nil; c = c.NextSibling {
		c.Serialize(buf)
	}
	buf.WriteString("</" + n.Tag + ">")
}
