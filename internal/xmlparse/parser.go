// Package xmlparse is a small, dependency-free SAX-style XML parser. It
// produces the event stream (start element, end element, character data)
// from which the succinct document model of Section 2 is built; the
// streaming baseline evaluator consumes the same events. It supports
// attributes, comments, CDATA sections, processing instructions, DOCTYPE
// declarations (skipped), and the predefined plus numeric character
// entities. Line ends in text and attribute values are normalized to "\n"
// (XML 1.0 §2.11). It is deliberately not a full validating parser.
package xmlparse

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Attr is a parsed attribute.
type Attr struct {
	Name  string
	Value string
}

// Handler receives parse events.
type Handler interface {
	StartElement(name string, attrs []Attr) error
	EndElement(name string) error
	// Text receives character data; the slice is only valid during the call.
	Text(data []byte) error
}

// SyntaxError reports a malformed document.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml syntax error at byte %d: %s", e.Offset, e.Msg)
}

type parser struct {
	data []byte
	pos  int
	h    Handler
	// cancellation: ctx is polled every pollStride loop iterations of run
	// (nil = never). Each iteration consumes at least one byte, so the poll
	// interval is bounded by pollStride bytes of input.
	ctx      context.Context
	pollLeft int
	// reusable buffers
	textBuf []byte
	stack   []string
}

// pollStride is the number of markup/text items parsed between context
// polls: cheap enough to be invisible, frequent enough that cancelling a
// multi-gigabyte parse takes effect within a few thousand events.
const pollStride = 2048

// Parse parses the document and streams events to h.
func Parse(data []byte, h Handler) error {
	return ParseCtx(context.Background(), data, h)
}

// ParseCtx is Parse with cancellation: the event loop polls ctx at bounded
// intervals and returns its error once it is done, mirroring the query-side
// polling contract (a build driving a cancelled context stops within one
// polling interval, not at end of input).
func ParseCtx(ctx context.Context, data []byte, h Handler) error {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: skip the Err calls entirely
	}
	p := &parser{data: data, h: h, ctx: ctx, pollLeft: pollStride}
	return p.run()
}

// poll checks the context once per pollStride calls.
func (p *parser) poll() error {
	p.pollLeft--
	if p.pollLeft > 0 {
		return nil
	}
	p.pollLeft = pollStride
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) run() error {
	sawRoot := false
	for p.pos < len(p.data) {
		if err := p.poll(); err != nil {
			return err
		}
		if p.data[p.pos] == '<' {
			if err := p.markup(&sawRoot); err != nil {
				return err
			}
		} else {
			if err := p.text(); err != nil {
				return err
			}
		}
	}
	if len(p.stack) != 0 {
		return p.errf("unclosed element <%s>", p.stack[len(p.stack)-1])
	}
	if !sawRoot {
		return p.errf("no root element")
	}
	return nil
}

func (p *parser) markup(sawRoot *bool) error {
	start := p.pos
	if p.pos+1 >= len(p.data) {
		return p.errf("truncated markup")
	}
	switch p.data[p.pos+1] {
	case '?':
		return p.skipPI()
	case '!':
		return p.skipDecl()
	case '/':
		return p.endTag()
	default:
		if len(p.stack) == 0 && *sawRoot {
			p.pos = start
			return p.errf("content after root element")
		}
		*sawRoot = true
		return p.startTag()
	}
}

func (p *parser) skipPI() error {
	end := indexFrom(p.data, p.pos+2, "?>")
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	p.pos = end + 2
	return nil
}

func (p *parser) skipDecl() error {
	// <!-- comment -->, <![CDATA[ ... ]]> (handled in text), <!DOCTYPE ...>
	if bytes.HasPrefix(p.data[p.pos:], []byte("<!--")) {
		end := indexFrom(p.data, p.pos+4, "-->")
		if end < 0 {
			return p.errf("unterminated comment")
		}
		p.pos = end + 3
		return nil
	}
	if bytes.HasPrefix(p.data[p.pos:], []byte("<![CDATA[")) {
		end := indexFrom(p.data, p.pos+9, "]]>")
		if end < 0 {
			return p.errf("unterminated CDATA section")
		}
		if len(p.stack) == 0 {
			return p.errf("CDATA outside root element")
		}
		if end > p.pos+9 {
			data, err := p.decode(p.data[p.pos+9:end], false)
			if err != nil {
				return err
			}
			if err := p.h.Text(data); err != nil {
				return err
			}
		}
		p.pos = end + 3
		return nil
	}
	// DOCTYPE or other declaration: skip to matching '>' (allow one nesting
	// level of [...] for internal subsets).
	depth := 0
	for i := p.pos + 2; i < len(p.data); i++ {
		switch p.data[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos = i + 1
				return nil
			}
		}
	}
	return p.errf("unterminated declaration")
}

func (p *parser) startTag() error {
	p.pos++ // consume '<'
	name, err := p.name()
	if err != nil {
		return err
	}
	var attrs []Attr
	var names map[string]bool // the names in attrs, once there are 8
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.data[p.pos]
		if c == '>' {
			p.pos++
			if err := p.h.StartElement(name, attrs); err != nil {
				return err
			}
			p.stack = append(p.stack, name)
			return nil
		}
		if c == '/' {
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return p.errf("malformed empty-element tag")
			}
			p.pos += 2
			if err := p.h.StartElement(name, attrs); err != nil {
				return err
			}
			return p.h.EndElement(name)
		}
		nstart := p.pos
		aname, err := p.name()
		if err != nil {
			return err
		}
		if len(attrs) == 8 { // past a few names, a set keeps the check linear
			names = make(map[string]bool, 16)
			for _, a := range attrs {
				names[a.Name] = true
			}
		}
		if names[aname] || names == nil && slices.ContainsFunc(attrs, func(a Attr) bool { return a.Name == aname }) {
			// XML 1.0 §3.1 (Unique Att Spec): a name appears once per tag.
			p.pos = nstart
			return p.errf("duplicate attribute %q", aname)
		}
		if names != nil {
			names[aname] = true
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return p.errf("expected '=' after attribute %q", aname)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return p.errf("expected quoted attribute value for %q", aname)
		}
		quote := p.data[p.pos]
		p.pos++
		vstart := p.pos
		end := bytes.IndexByte(p.data[vstart:], quote)
		if end < 0 {
			p.pos = len(p.data)
			return p.errf("unterminated attribute value for %q", aname)
		}
		p.pos = vstart + end
		raw := p.data[vstart:p.pos]
		if k := bytes.IndexByte(raw, '<'); k >= 0 {
			// XML 1.0 §3.1 (AttValue): a literal '<' cannot occur in a value.
			p.pos = vstart + k
			return p.errf("'<' in attribute value for %q", aname)
		}
		val, err := p.decode(raw, true)
		if err != nil {
			return err
		}
		p.pos++
		attrs = append(attrs, Attr{Name: aname, Value: string(val)})
	}
}

func (p *parser) endTag() error {
	p.pos += 2 // consume '</'
	name, err := p.name()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '>' {
		return p.errf("malformed end tag </%s", name)
	}
	p.pos++
	if len(p.stack) == 0 {
		return p.errf("unexpected </%s>", name)
	}
	top := p.stack[len(p.stack)-1]
	if top != name {
		return p.errf("mismatched end tag </%s>, open element is <%s>", name, top)
	}
	p.stack = p.stack[:len(p.stack)-1]
	return p.h.EndElement(name)
}

// cdataEnd closes a CDATA section; character data cannot contain it.
var cdataEnd = []byte("]]>")

func (p *parser) text() error {
	start := p.pos
	p.pos = len(p.data)
	if end := bytes.IndexByte(p.data[start:], '<'); end >= 0 {
		p.pos = start + end
	}
	raw := p.data[start:p.pos]
	if len(p.stack) == 0 {
		// Whitespace between the prolog and the root is ignored.
		if len(strings.TrimSpace(string(raw))) != 0 {
			p.pos = start
			return p.errf("character data outside root element")
		}
		return nil
	}
	if k := bytes.Index(raw, cdataEnd); k >= 0 {
		// XML 1.0 §2.4: character data cannot contain "]]>".
		p.pos = start + k
		return p.errf("']]>' in character data")
	}
	data, err := p.decode(raw, true)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		return p.h.Text(data)
	}
	return nil
}

func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.data) && isNameByte(p.data[p.pos], p.pos == start) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected name")
	}
	return string(p.data[start:p.pos]), nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) && isSpace(p.data[p.pos]) {
		p.pos++
	}
}

// decode normalizes the line ends of raw — "\r\n" and a lone "\r" become
// "\n" (XML 1.0 §2.11) — and, when entities is set, resolves its entity
// and character references. Normalization comes first, so "&#13;" still
// yields "\r". Input with neither byte to rewrite is returned as is.
func (p *parser) decode(raw []byte, entities bool) ([]byte, error) {
	i := bytes.IndexByte(raw, '\r')
	if entities {
		if amp := bytes.IndexByte(raw, '&'); amp >= 0 && (i < 0 || amp < i) {
			i = amp
		}
	}
	if i < 0 {
		return raw, nil
	}
	out := append(p.textBuf[:0], raw[:i]...)
	for i < len(raw) {
		c := raw[i]
		if c == '\r' {
			out = append(out, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
			continue
		}
		if c != '&' || !entities {
			out = append(out, c)
			i++
			continue
		}
		semi := bytes.IndexByte(raw[i+1:min(i+12, len(raw))], ';')
		if semi < 0 {
			return nil, p.errf("unterminated entity reference")
		}
		semi += i + 1
		ent := string(raw[i+1 : semi])
		switch ent {
		case "amp":
			out = append(out, '&')
		case "lt":
			out = append(out, '<')
		case "gt":
			out = append(out, '>')
		case "quot":
			out = append(out, '"')
		case "apos":
			out = append(out, '\'')
		default:
			if strings.HasPrefix(ent, "#") {
				var code int64
				var err error
				if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
					code, err = strconv.ParseInt(ent[2:], 16, 32)
				} else {
					code, err = strconv.ParseInt(ent[1:], 10, 32)
				}
				if err != nil || !isChar(code) {
					return nil, p.errf("bad character reference &%s;", ent)
				}
				out = utf8.AppendRune(out, rune(code))
			} else {
				return nil, p.errf("unknown entity &%s;", ent)
			}
		}
		i = semi + 1
	}
	p.textBuf = out
	return out, nil
}

// isChar reports whether code is an XML 1.0 Char: tab, LF, CR, or a code
// point from U+0020 up that is neither a surrogate nor U+FFFE/U+FFFF.
func isChar(code int64) bool {
	switch {
	case code == '\t' || code == '\n' || code == '\r':
		return true
	case code < 0x20, code >= 0xD800 && code <= 0xDFFF, code == 0xFFFE, code == 0xFFFF:
		return false
	}
	return code <= 0x10FFFF
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameByte(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || c >= 0x80 {
		return true
	}
	if !first && (c >= '0' && c <= '9' || c == '-' || c == '.') {
		return true
	}
	return false
}

// indexFrom returns the index of the first sub at or after from, or -1. It
// searches the bytes in place: converting the rest of the document to a
// string would copy it on every comment, CDATA section and PI.
func indexFrom(data []byte, from int, sub string) int {
	if from >= len(data) {
		return -1
	}
	idx := bytes.Index(data[from:], []byte(sub))
	if idx < 0 {
		return -1
	}
	return from + idx
}

// AppendEscape appends s to dst with the predefined entities escaped, for
// serialization (Section 4.3 / experimental protocol in Section 6.1): &, <
// and > always, and the quotes " and ' too when attr is set, so the result
// can sit inside a quoted attribute value. CR is written as "&#13;", which
// survives the parser's line-end normalization. Runs of bytes that need no
// escaping are copied in one append.
func AppendEscape(dst, s []byte, attr bool) []byte {
	last := 0
	for i, c := range s {
		if c > '>' {
			continue // every byte that needs escaping is at most '>'
		}
		var ent string
		switch c {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '\r':
			ent = "&#13;"
		case '"':
			if !attr {
				continue
			}
			ent = "&quot;"
		case '\'':
			if !attr {
				continue
			}
			ent = "&apos;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ent...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
