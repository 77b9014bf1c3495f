// Package oracle generates random Core+ XPath queries over a document's own
// vocabulary, for differential testing of the succinct engine against the
// naive pointer-based evaluator of package dom. The generator stays inside
// the fragment both evaluators support (every axis but namespace — forward,
// backward and following — attribute steps, boolean filters, the four text
// predicates), so every generated query must compile — a compile error on
// generated input is itself a bug.
package oracle

import (
	"slices"
	"strings"

	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/wordindex"
)

// Vocab is the query-generation vocabulary extracted from one document.
type Vocab struct {
	Tags  []string // element tag names (reserved labels excluded)
	Attrs []string // attribute names
	Words []string // words sampled from text content
	Spans []string // literals across text boundaries (SpanLiterals)
}

// ExtractVocab walks a dom tree collecting element tags, attribute names,
// up to maxWords distinct text words and the span literals.
func ExtractVocab(t *dom.Tree, maxWords int) Vocab {
	var v Vocab
	tagSeen := map[string]bool{}
	attrSeen := map[string]bool{}
	wordSeen := map[string]bool{}
	var walk func(n *dom.Node, underAttr bool)
	walk = func(n *dom.Node, underAttr bool) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			switch c.Tag {
			case "@":
				walk(c, true)
				continue
			case "#", "%":
				if len(wordSeen) < maxWords {
					for _, w := range strings.Fields(string(c.Text)) {
						if isWord(w) && !wordSeen[w] && len(wordSeen) < maxWords {
							wordSeen[w] = true
							v.Words = append(v.Words, w)
						}
					}
				}
				continue
			}
			if underAttr {
				if !attrSeen[c.Tag] {
					attrSeen[c.Tag] = true
					v.Attrs = append(v.Attrs, c.Tag)
				}
			} else if !tagSeen[c.Tag] {
				tagSeen[c.Tag] = true
				v.Tags = append(v.Tags, c.Tag)
			}
			walk(c, false)
		}
	}
	walk(t.Root, false)
	v.Spans = SpanLiterals(t, 16)
	return v
}

// isWord keeps only literals that survive the query lexer unescaped.
func isWord(w string) bool {
	if len(w) == 0 || len(w) > 12 {
		return false
	}
	for i := 0; i < len(w); i++ {
		c := w[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// stepAxes are the explicit axis spellings the generator mixes into main
// path steps (the grammar lets an explicit axis override the // shorthand).
// The backward and following axes route the query through the navigational
// post-step evaluator; following-sibling stays inside the automaton.
var stepAxes = []string{
	"following-sibling", "parent", "ancestor", "ancestor-or-self",
	"preceding-sibling", "preceding", "following", "descendant-or-self",
}

// RandomQuery produces one random Core+ query over the vocabulary. The
// distribution mixes selective and non-selective steps, every axis
// (standalone and inside predicates), attribute steps, boolean filters and
// text predicates, including deliberate misses (unknown tags and literals)
// to exercise the empty-result paths.
func RandomQuery(r *gen.RNG, v Vocab) string {
	var sb strings.Builder
	steps := 1 + r.Intn(3)
	for i := 0; i < steps; i++ {
		if r.Intn(2) == 0 {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		// Explicit axes ride on non-first steps so the context set they
		// move from is usually non-empty (every axis is legal anywhere).
		if i > 0 && r.Intn(6) == 0 {
			if r.Intn(5) == 0 {
				// The ".." abbreviation is a whole step (parent::node()).
				sb.WriteString("..")
				if r.Intn(3) == 0 {
					sb.WriteString("[" + randExpr(r, v, 2) + "]")
				}
				continue
			}
			sb.WriteString(pick(r, stepAxes) + "::")
		}
		sb.WriteString(nodeTest(r, v))
		if r.Intn(3) == 0 {
			sb.WriteString("[" + randExpr(r, v, 2) + "]")
		}
	}
	// Occasionally finish on an attribute or text() step.
	switch r.Intn(10) {
	case 0:
		if len(v.Attrs) > 0 {
			sb.WriteString("/@" + pick(r, v.Attrs))
		}
	case 1:
		sb.WriteString("//text()")
	}
	return sb.String()
}

func nodeTest(r *gen.RNG, v Vocab) string {
	switch r.Intn(10) {
	case 0:
		return "*"
	case 1:
		return "node()"
	case 2:
		// A tag that (most likely) does not occur: the absent-label path.
		return "zz" + pick(r, v.Tags)
	default:
		return pick(r, v.Tags)
	}
}

// randExpr generates a filter expression with bounded nesting depth.
func randExpr(r *gen.RNG, v Vocab, depth int) string {
	if depth > 0 {
		switch r.Intn(8) {
		case 0:
			return randExpr(r, v, depth-1) + " and " + randExpr(r, v, depth-1)
		case 1:
			return randExpr(r, v, depth-1) + " or " + randExpr(r, v, depth-1)
		case 2:
			return "not(" + randExpr(r, v, depth-1) + ")"
		}
	}
	switch r.Intn(6) {
	case 0: // relative path existence
		return relPath(r, v)
	case 1: // attribute existence
		if len(v.Attrs) > 0 {
			return "@" + pick(r, v.Attrs)
		}
		return relPath(r, v)
	case 2: // attribute value
		if len(v.Attrs) > 0 && len(v.Words) > 0 {
			return "@" + pick(r, v.Attrs) + " = '" + literal(r, v) + "'"
		}
		return relPath(r, v)
	case 3: // equality on the current node or a path target
		return target(r, v) + " = '" + literal(r, v) + "'"
	default: // contains / starts-with / ends-with
		fn := [...]string{"contains", "starts-with", "ends-with"}[r.Intn(3)]
		return fn + "(" + target(r, v) + ", '" + literal(r, v) + "')"
	}
}

func relPath(r *gen.RNG, v Vocab) string {
	p := pick(r, v.Tags)
	switch r.Intn(8) {
	case 0:
		return ".//" + p
	case 1:
		return p + "/" + pick(r, v.Tags)
	case 2:
		return p + "//" + pick(r, v.Tags)
	case 3:
		// backward/following axes inside predicates (a[parent::b] etc.)
		return pick(r, stepAxes) + "::" + p
	case 4:
		return "../" + p
	case 5:
		return "ancestor::" + p + "/" + pick(r, v.Tags)
	}
	return p
}

func target(r *gen.RNG, v Vocab) string {
	if r.Intn(2) == 0 {
		return "."
	}
	return relPath(r, v)
}

// literal picks a word from the document, sometimes truncated to a prefix
// (so starts-with/contains hit partial matches), sometimes a guaranteed
// miss.
func literal(r *gen.RNG, v Vocab) string {
	if len(v.Words) == 0 || r.Intn(8) == 0 {
		return "qqmiss"
	}
	w := pick(r, v.Words)
	if len(w) > 3 && r.Intn(3) == 0 {
		return w[:1+r.Intn(len(w)-1)]
	}
	return w
}

func pick(r Chooser, xs []string) string {
	if len(xs) == 0 {
		return "empty"
	}
	return xs[r.Intn(len(xs))]
}

// PhraseTexts is the naive reference for the word index's ContainsPhrase
// (Table VII): it tokenizes every text and returns, in order, the ids of
// those in which the phrase's words occur consecutively.
func PhraseTexts(texts [][]byte, phrase string) []int32 {
	want := wordindex.Tokenize([]byte(phrase))
	var out []int32
	for id, t := range texts {
		words := wordindex.Tokenize(t)
		for i := 0; len(want) > 0 && i+len(want) <= len(words); i++ {
			if slices.Equal(words[i:i+len(want)], want) {
				out = append(out, int32(id))
				break
			}
		}
	}
	return out
}
