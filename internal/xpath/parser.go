// Package xpath implements the full-axis Core+ XPath fragment: Core XPath
// (every XPath axis but namespace — child, descendant, descendant-or-self,
// self, attribute, following-sibling, following, parent, ancestor,
// ancestor-or-self, preceding-sibling and preceding — with filters, and,
// or, not) extended with the text predicates =, contains, starts-with and
// ends-with. Queries
// are compiled into the marking tree automata of package automata
// (Section 5.2) for the downward fragment, with a planner that chooses
// between TopDownRun and BottomUpRun and between the FM-index and the naive
// text store (Section 6.6); upward and leftward steps, which the balanced
// parentheses answer in constant-or-log time (Parent, PrevSibling,
// FindOpen), are evaluated by direct navigation (see nav.go).
package xpath

import (
	"fmt"
	"strings"
)

// Axis enumerates the supported axes. The first group (through
// AxisFollowingSibling) is expressible by the downward marking automaton;
// the second group is evaluated navigationally over the BP structure.
type Axis uint8

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisSelf
	AxisAttribute
	AxisFollowingSibling

	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisPrecedingSibling
	AxisPreceding
	AxisFollowing
)

func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisSelf:
		return "self"
	case AxisAttribute:
		return "attribute"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisPreceding:
		return "preceding"
	case AxisFollowing:
		return "following"
	}
	return "?"
}

// TestKind enumerates node tests.
type TestKind uint8

const (
	TestName TestKind = iota // a tag name
	TestStar                 // *
	TestText                 // text()
	TestNode                 // node()
)

// NodeTest is a node test.
type NodeTest struct {
	Kind TestKind
	Name string
}

func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestStar:
		return "*"
	case TestText:
		return "text()"
	}
	return "node()"
}

// Step is one location step.
type Step struct {
	Axis    Axis
	Test    NodeTest
	Filters []Expr

	// underAttr is set by normalization when this step selects attribute
	// nodes (whose value leaf is labeled %, not #).
	underAttr bool
	// pass is the node test of Filters compiled by Compile (compilePass);
	// nil when the step has no filters.
	pass func(int) bool
}

func (s *Step) String() string {
	out := s.Axis.String() + "::" + s.Test.String()
	for _, f := range s.Filters {
		out += "[" + f.String() + "]"
	}
	return out
}

// Path is a sequence of steps.
type Path struct {
	Steps []*Step
}

func (p *Path) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return "/" + strings.Join(parts, "/")
}

// Expr is a filter expression.
type Expr interface{ String() string }

// AndExpr, OrExpr, NotExpr are the Boolean connectives.
type AndExpr struct{ L, R Expr }
type OrExpr struct{ L, R Expr }
type NotExpr struct{ E Expr }

func (e *AndExpr) String() string { return "(" + e.L.String() + " and " + e.R.String() + ")" }
func (e *OrExpr) String() string  { return "(" + e.L.String() + " or " + e.R.String() + ")" }
func (e *NotExpr) String() string { return "not(" + e.E.String() + ")" }

// PathExpr tests the existence of a relative path.
type PathExpr struct{ Path *Path }

func (e *PathExpr) String() string { return e.Path.String() }

// TextOp enumerates text predicates.
type TextOp uint8

const (
	OpContains TextOp = iota
	OpStartsWith
	OpEndsWith
	OpEquals
	// OpCustom is an extension predicate (e.g. the PSSM matcher of Section
	// 6.7) resolved through Options.CustomMatchSets by function name.
	OpCustom
)

func (o TextOp) String() string {
	switch o {
	case OpContains:
		return "contains"
	case OpStartsWith:
		return "starts-with"
	case OpEndsWith:
		return "ends-with"
	case OpCustom:
		return "custom"
	}
	return "="
}

// TextExpr applies a text predicate to the string value of a target. A nil
// Target means the current node (".").
type TextExpr struct {
	Op      TextOp
	Target  *Path // nil = current node
	Literal string
	// Func names the extension predicate when Op == OpCustom.
	Func string

	// pred is the predicate makePred built for the expression, once per
	// compiled query (see compiler.pred), and match the match set it tests,
	// when it tests one.
	pred  func(int) bool
	match *textMatch
}

func (e *TextExpr) String() string {
	tgt := "."
	if e.Target != nil {
		tgt = e.Target.String()
	}
	if e.Op == OpEquals {
		return tgt + " = " + fmt.Sprintf("%q", e.Literal)
	}
	name := e.Op.String()
	if e.Op == OpCustom {
		name = e.Func
	}
	return fmt.Sprintf("%s(%s, %q)", name, tgt, e.Literal)
}

// --- Lexer ---

type tokKind uint8

const (
	tkEOF tokKind = iota
	tkSlash
	tkDSlash // //
	tkLBracket
	tkRBracket
	tkLParen
	tkRParen
	tkComma
	tkAxis // name followed by ::
	tkName
	tkStar
	tkAt
	tkDot
	tkDotDot // ..
	tkEquals
	tkString
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// ParseError reports a malformed query.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xpath parse error at %d: %s", e.Pos, e.Msg)
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
				l.emit(tkDSlash, "//")
				l.pos += 2
			} else {
				l.emit(tkSlash, "/")
				l.pos++
			}
		case c == '[':
			l.emit(tkLBracket, "[")
			l.pos++
		case c == ']':
			l.emit(tkRBracket, "]")
			l.pos++
		case c == '(':
			l.emit(tkLParen, "(")
			l.pos++
		case c == ')':
			l.emit(tkRParen, ")")
			l.pos++
		case c == ',':
			l.emit(tkComma, ",")
			l.pos++
		case c == '*':
			l.emit(tkStar, "*")
			l.pos++
		case c == '@':
			l.emit(tkAt, "@")
			l.pos++
		case c == '.':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
				l.emit(tkDotDot, "..")
				l.pos += 2
			} else {
				l.emit(tkDot, ".")
				l.pos++
			}
		case c == '=':
			l.emit(tkEquals, "=")
			l.pos++
		case c == '\'' || c == '"':
			quote := c
			j := l.pos + 1
			for j < len(l.src) && l.src[j] != quote {
				j++
			}
			if j >= len(l.src) {
				return nil, &ParseError{Pos: l.pos, Msg: "unterminated string literal"}
			}
			l.emit(tkString, unescapeLiteral(l.src[l.pos+1:j]))
			l.pos = j + 1
		case isNameStart(c):
			j := l.pos
			for j < len(l.src) && isNameChar(l.src[j]) {
				j++
			}
			name := l.src[l.pos:j]
			if strings.HasPrefix(l.src[j:], "::") {
				l.emit(tkAxis, name)
				l.pos = j + 2
			} else {
				l.emit(tkName, name)
				l.pos = j
			}
		default:
			return nil, &ParseError{Pos: l.pos, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	l.emit(tkEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-'
}

// unescapeLiteral resolves the common C-style escapes the paper uses in its
// benchmark queries (e.g. "1999\n11\n26" in M11).
func unescapeLiteral(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			default:
				sb.WriteByte('\\')
				sb.WriteByte(s[i])
			}
		} else {
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// --- Parser ---

type parser struct {
	toks []token
	i    int
	// depth bounds the combined nesting of predicates, parentheses and
	// sub-paths so pathological inputs (e.g. ten thousand "not(" in a row)
	// fail with a ParseError instead of exhausting the goroutine stack —
	// later recursive passes (normalize, compile, the dom oracle) then
	// inherit the same bound.
	depth int
}

// maxParseDepth is far beyond any real query but well within stack limits.
const maxParseDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return &ParseError{Pos: p.cur().pos, Msg: "query nesting too deep"}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// ParseQuery parses a Core+ query.
func ParseQuery(src string) (*Path, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tkEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	if len(path.Steps) == 0 {
		return nil, p.errf("empty query")
	}
	return path, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// parsePath parses [/|//] step ((/|//) step)*. At the top level a leading
// slash is implied; inside predicates a leading "./" or ".//" or bare step
// makes the path relative (the same thing for our evaluation model).
func (p *parser) parsePath(top bool) (*Path, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	path := &Path{}
	nextAxis := AxisChild
	// Optional leading ./ or . for relative paths.
	if !top && p.cur().kind == tkDot {
		// Lone "." (current node) is handled by the caller; here "." must
		// be followed by a slash.
		p.next()
		switch p.cur().kind {
		case tkSlash:
			p.next()
		case tkDSlash:
			p.next()
			nextAxis = AxisDescendant
		default:
			return nil, p.errf("expected / or // after .")
		}
	} else {
		switch p.cur().kind {
		case tkSlash:
			p.next()
		case tkDSlash:
			p.next()
			nextAxis = AxisDescendant
		}
	}
	for {
		step, err := p.parseStep(nextAxis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		switch p.cur().kind {
		case tkSlash:
			p.next()
			nextAxis = AxisChild
		case tkDSlash:
			p.next()
			nextAxis = AxisDescendant
		default:
			return path, nil
		}
	}
}

// parseStep parses one location step; defaultAxis applies when no explicit
// axis is given (child, or descendant after //).
func (p *parser) parseStep(defaultAxis Axis) (*Step, error) {
	st := &Step{Axis: defaultAxis}
	switch p.cur().kind {
	case tkAxis:
		name := p.next().text
		switch name {
		case "child":
			st.Axis = AxisChild
		case "descendant":
			st.Axis = AxisDescendant
		case "self":
			st.Axis = AxisSelf
		case "attribute":
			st.Axis = AxisAttribute
		case "following-sibling":
			st.Axis = AxisFollowingSibling
		case "parent":
			st.Axis = AxisParent
		case "ancestor":
			st.Axis = AxisAncestor
		case "ancestor-or-self":
			st.Axis = AxisAncestorOrSelf
		case "preceding-sibling":
			st.Axis = AxisPrecedingSibling
		case "preceding":
			st.Axis = AxisPreceding
		case "following":
			st.Axis = AxisFollowing
		case "descendant-or-self":
			st.Axis = AxisDescendantOrSelf
		default:
			return nil, p.errf("unknown axis %q (supported: child, descendant, descendant-or-self, self, attribute, following-sibling, following, parent, ancestor, ancestor-or-self, preceding-sibling, preceding)", name)
		}
	case tkAt:
		p.next()
		st.Axis = AxisAttribute
	case tkDot:
		p.next()
		st.Axis = AxisSelf
		st.Test = NodeTest{Kind: TestNode}
		return p.parseFilters(st)
	case tkDotDot:
		// ".." abbreviates parent::node(). As everywhere in this grammar, an
		// explicit axis overrides the // shorthand, so "a//.." is a/..
		p.next()
		st.Axis = AxisParent
		st.Test = NodeTest{Kind: TestNode}
		return p.parseFilters(st)
	}
	// Node test.
	switch p.cur().kind {
	case tkStar:
		p.next()
		st.Test = NodeTest{Kind: TestStar}
	case tkName:
		name := p.next().text
		if p.cur().kind == tkLParen && (name == "text" || name == "node") {
			p.next()
			if p.cur().kind != tkRParen {
				return nil, p.errf("expected ) after %s(", name)
			}
			p.next()
			if name == "text" {
				st.Test = NodeTest{Kind: TestText}
			} else {
				st.Test = NodeTest{Kind: TestNode}
			}
		} else {
			st.Test = NodeTest{Kind: TestName, Name: name}
		}
	default:
		return nil, p.errf("expected node test, got %q", p.cur().text)
	}
	return p.parseFilters(st)
}

func (p *parser) parseFilters(st *Step) (*Step, error) {
	for p.cur().kind == tkLBracket {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tkRBracket {
			return nil, p.errf("expected ] after predicate")
		}
		p.next()
		st.Filters = append(st.Filters, e)
	}
	return st, nil
}

// parseExpr parses or-expressions.
func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tkName && p.cur().text == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tkName && p.cur().text == "and" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkName && t.text == "not":
		p.next()
		if p.cur().kind != tkLParen {
			return nil, p.errf("expected ( after not")
		}
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tkRParen {
			return nil, p.errf("expected ) to close not(")
		}
		p.next()
		return &NotExpr{E: inner}, nil
	case t.kind == tkLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tkRParen {
			return nil, p.errf("expected )")
		}
		p.next()
		return inner, nil
	case t.kind == tkName && t.text != "not" && t.text != "text" && t.text != "node" && p.toks[p.i+1].kind == tkLParen:
		name := p.next().text
		p.next() // (
		target, err := p.parseValueTarget()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tkComma {
			return nil, p.errf("expected , in %s()", name)
		}
		p.next()
		if p.cur().kind != tkString {
			return nil, p.errf("expected string literal in %s()", name)
		}
		lit := p.next().text
		if p.cur().kind != tkRParen {
			return nil, p.errf("expected ) to close %s()", name)
		}
		p.next()
		op := OpContains
		fn := ""
		switch name {
		case "contains":
		case "starts-with":
			op = OpStartsWith
		case "ends-with":
			op = OpEndsWith
		default:
			op, fn = OpCustom, name
		}
		return &TextExpr{Op: op, Target: target, Literal: lit, Func: fn}, nil
	default:
		// A path expression, optionally compared with = literal.
		target, err := p.parseValueTarget()
		if err != nil {
			return nil, err
		}
		if p.cur().kind == tkEquals {
			p.next()
			if p.cur().kind != tkString {
				return nil, p.errf("expected string literal after =")
			}
			lit := p.next().text
			return &TextExpr{Op: OpEquals, Target: target, Literal: lit}, nil
		}
		if target == nil {
			return nil, p.errf("bare . is not a predicate")
		}
		return &PathExpr{Path: target}, nil
	}
}

// parseValueTarget parses "." (returns nil) or a relative path.
func (p *parser) parseValueTarget() (*Path, error) {
	if p.cur().kind == tkDot {
		// "." alone, or "./..." / ".//..." path
		if p.toks[p.i+1].kind == tkSlash || p.toks[p.i+1].kind == tkDSlash {
			return p.parsePath(false)
		}
		p.next()
		return nil, nil
	}
	if p.cur().kind == tkAxis && p.cur().text == "self" {
		// self::node() etc. means the current node
		save := p.i
		st, err := p.parseStep(AxisSelf)
		if err != nil {
			return nil, err
		}
		if st.Axis == AxisSelf && len(st.Filters) == 0 {
			return nil, nil
		}
		p.i = save
	}
	switch p.cur().kind {
	case tkSlash, tkDSlash, tkName, tkStar, tkAt, tkAxis, tkDotDot:
		return p.parsePath(false)
	}
	return nil, p.errf("expected path or . , got %q", p.cur().text)
}
