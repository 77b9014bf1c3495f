package oracle

import (
	"strings"

	"repro/internal/dom"
)

// Chooser is the choice source of the span generators: a *gen.RNG, or a
// fuzzer's input bytes.
type Chooser interface{ Intn(n int) int }

// spanTags and spanAlphabet keep generated span documents small and their
// texts colliding: with three letters, a literal crossing one boundary
// often also occurs inside a text, across other boundaries and across
// attribute values.
var (
	spanTags     = []string{"a", "b", "c", "d"}
	spanAlphabet = "ab\n"
)

// SpanDoc generates a document of about elems elements whose string values
// cross many text boundaries: mixed content with texts of one to three
// bytes (so runs of one-byte texts separated by elements occur), empty
// elements, a pure-text element e that is sometimes empty, and attribute
// values between texts.
func SpanDoc(r Chooser, elems int) []byte {
	var sb strings.Builder
	n := 0
	text := func() {
		for k := 1 + r.Intn(3); k > 0; k-- {
			sb.WriteByte(spanAlphabet[r.Intn(len(spanAlphabet))])
		}
	}
	var elem func(depth int)
	elem = func(depth int) {
		n++
		tag := spanTags[r.Intn(len(spanTags))]
		sb.WriteString("<" + tag)
		if r.Intn(3) == 0 {
			sb.WriteString(` k="`)
			text()
			sb.WriteString(`"`)
		}
		if depth >= 4 || r.Intn(4) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteString(">")
		for kids := 1 + r.Intn(4); kids > 0; kids-- {
			switch {
			case r.Intn(2) == 0 || n >= elems:
				text()
			case r.Intn(4) == 0:
				// e has pure text content, sometimes none at all.
				if r.Intn(2) == 0 {
					sb.WriteString("<e/>")
				} else {
					sb.WriteString("<e>")
					text()
					sb.WriteString("</e>")
				}
			default:
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	sb.WriteString("<r>")
	for n < elems {
		if r.Intn(2) == 0 {
			text()
		}
		elem(1)
	}
	sb.WriteString("</r>")
	return []byte(sb.String())
}

// SpanLiterals returns literals that exercise the string value of
// multi-text nodes, taken from the document's own texts (C is the
// concatenation of the element texts in document order; attribute values
// are not part of it):
//   - the head of C and its tail (the first and the last text), and the
//     first text joined with the head of the second;
//   - the tail of one text joined with the head of the next (two texts);
//   - a tail, a whole short text and a head (three texts);
//   - a run of one-byte texts (as many texts as bytes);
//   - across an attribute value: the texts on either side joined, which is
//     part of C, and the text before joined with the value, which is not;
//     and the value itself, which is its attribute node's string value;
//   - the empty literal.
//
// Literals the query lexer cannot quote are dropped; each group is thinned
// to at most limit entries spread over the document.
func SpanLiterals(t *dom.Tree, limit int) []string {
	var texts []string // non-empty element texts, in document order
	var attrJoins []string
	var pending []string // attribute values since the last element text
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			switch {
			case c.Tag == "%" && len(c.Text) > 0:
				pending = append(pending, string(c.Text))
			case c.Tag == "#" && len(c.Text) > 0:
				s := string(c.Text)
				if len(texts) > 0 {
					prev := tail(texts[len(texts)-1], 2)
					for _, v := range pending {
						attrJoins = append(attrJoins, prev+head(s, 2), prev+head(v, 2), v)
					}
				}
				pending = pending[:0]
				texts = append(texts, s)
			default:
				walk(c)
			}
		}
	}
	walk(t.Root)
	if len(texts) == 0 {
		return []string{""}
	}
	all := strings.Join(texts, "")
	out := []string{head(all, 4), tail(all, 4)}
	var two, three, runs []string
	for i := 0; i+1 < len(texts); i++ {
		if i == 0 {
			out = append(out, texts[0]+head(texts[1], 2))
		}
		two = append(two, tail(texts[i], 1+i%3)+head(texts[i+1], 1+(i/3)%3))
		if i+2 < len(texts) && len(texts[i+1]) <= 6 {
			three = append(three, tail(texts[i], 2)+texts[i+1]+head(texts[i+2], 2))
		}
	}
	for i := 0; i < len(texts); {
		j := i
		for j < len(texts) && len(texts[j]) == 1 {
			j++
		}
		if j-i >= 2 {
			runs = append(runs, strings.Join(texts[i:j], ""))
		}
		i = max(j, i+1)
	}
	for _, g := range [][]string{two, three, runs, attrJoins} {
		out = append(out, thin(g, limit)...)
	}
	out = append(out, "")
	seen := map[string]bool{}
	kept := out[:0]
	for _, s := range out {
		if !seen[s] && !strings.ContainsAny(s, `'\`) {
			seen[s] = true
			kept = append(kept, s)
		}
	}
	return kept
}

func head(s string, n int) string { return s[:min(n, len(s))] }
func tail(s string, n int) string { return s[len(s)-min(n, len(s)):] }

// thin keeps at most n entries of xs, evenly spaced.
func thin(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := make([]string, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// SpanQuery produces a query whose text predicate is on a multi-text target,
// with a literal from v.Spans or, one time in eight, the empty literal:
// mostly contains(., lit) as the last step's
// only predicate (the shape both strategies run), sometimes negated, joined
// with a second predicate, on a path target or followed by another step,
// and, for the empty literal, any of the four functions.
func SpanQuery(r Chooser, v Vocab) string {
	lit := "qqmiss"
	switch {
	case r.Intn(8) == 7:
		lit = ""
	case len(v.Spans) > 0:
		lit = v.Spans[r.Intn(len(v.Spans))]
	}
	pred := "contains(., '" + lit + "')"
	if lit == "" {
		switch r.Intn(4) {
		case 1:
			pred = "starts-with(., '')"
		case 2:
			pred = "ends-with(., '')"
		case 3:
			pred = ". = ''"
		}
	}
	test := pick(r, v.Tags)
	switch r.Intn(4) {
	case 0:
		test = "*"
	case 1:
		test = "node()"
	}
	prefix := "//"
	switch r.Intn(5) {
	case 0:
		prefix = "//*/"
	case 1:
		prefix = "//" + pick(r, v.Tags) + "//"
	}
	suffix := ""
	switch r.Intn(8) {
	case 0:
		pred = "not(" + pred + ")"
	case 1:
		pred += " and " + pick(r, v.Tags)
	case 2:
		pred = strings.Replace(pred, ".", pick(r, v.Tags), 1)
	case 3:
		suffix = "//" + pick(r, v.Tags)
	}
	return prefix + test + "[" + pred + "]" + suffix
}
