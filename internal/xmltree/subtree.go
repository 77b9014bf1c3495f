package xmltree

import (
	"context"
	"io"

	"repro/internal/xmlparse"
)

// Serialization (Section 4.3). A subtree is the contiguous parenthesis
// range [x, Close(x)], and its texts are the consecutive text ids starting
// at leafB.Rank1(x), so writing it out is one left-to-right scan: the tag
// sequence names every parenthesis and says whether it opens (even entry)
// or closes (odd entry), and no node is navigated to. The output is
// appended to a reused chunk and reaches the writer one chunk at a time.

// chunkSize is the size at which the serializer hands its buffer to the
// writer, and so the granularity of writes and of cancellation.
const chunkSize = 32 << 10

// Serializer writes subtrees as XML: elements with their attributes, and
// texts and attribute values escaped by xmlparse.AppendEscape. Output
// accumulates in one chunkSize buffer, which goes to the writer in a single
// Write whenever it fills and on Flush; the context is polled before each
// of those writes, so a cancelled serialization stops within one chunk even
// inside a single subtree. The first error sticks: every later call returns
// it. A Serializer is not safe for concurrent use.
type Serializer struct {
	d   *Doc
	w   io.Writer
	ctx context.Context
	buf []byte
	err error
}

// NewSerializer returns a serializer of d's subtrees to w, cancelled by
// ctx. Call Flush after the last subtree.
func (d *Doc) NewSerializer(ctx context.Context, w io.Writer) *Serializer {
	return &Serializer{d: d, w: w, ctx: ctx, buf: make([]byte, 0, chunkSize)}
}

// GetSubtree serializes the XML content of the subtree rooted at x to w,
// reproducing tags, attributes and escaped text.
func (d *Doc) GetSubtree(x int, w io.Writer) error {
	s := d.NewSerializer(context.Background(), w)
	if err := s.Subtree(x); err != nil {
		return err
	}
	return s.Flush()
}

// Subtree appends the serialization of the subtree rooted at x. An element
// is written with its attributes, and as <name .../> when it has no other
// content; a text or attribute-value leaf is its escaped text; the root
// writes its children; an attribute container (@) writes nothing, since
// its element writes the attributes; an attribute name node outside its
// container, as a query result, is written as an element holding the
// value.
func (s *Serializer) Subtree(x int) error {
	if s.err != nil {
		return s.err
	}
	d := s.d
	if d.TagOf(x) == attrsTag {
		return nil
	}
	id := d.leafB.Rank1(x)
	// inAttrs: inside an @ container, where names are attributes and values
	// take attribute escaping. pending: a start tag awaits its '>' (or '/>'
	// if the element closes first).
	inAttrs, pending := false, false
	for p, end := x, d.Par.Close(x); p <= end; p++ {
		v := d.Tag.Access(p)
		tag := v >> 1
		if v&1 == 0 {
			switch {
			case tag == textTag || tag == attrValTag:
				if pending && !inAttrs {
					s.buf = append(s.buf, '>')
					pending = false
				}
				if id < d.nText { // guards a corrupt index whose tags disagree with its leaves
					s.buf = xmlparse.AppendEscape(s.buf, d.Text(id), inAttrs)
				}
				id++
			case tag == attrsTag:
				inAttrs = true
			case tag == rootTag:
			case inAttrs:
				s.buf = append(s.buf, ' ')
				s.buf = append(s.buf, d.names[tag]...)
				s.buf = append(s.buf, '=', '"')
			default:
				if pending {
					s.buf = append(s.buf, '>')
				}
				s.buf = append(s.buf, '<')
				s.buf = append(s.buf, d.names[tag]...)
				pending = true
			}
		} else {
			switch {
			case tag == attrsTag:
				inAttrs = false
			case tag <= attrValTag:
			case inAttrs:
				s.buf = append(s.buf, '"')
			case pending:
				s.buf = append(s.buf, '/', '>')
				pending = false
			default:
				s.buf = append(s.buf, '<', '/')
				s.buf = append(s.buf, d.names[tag]...)
				s.buf = append(s.buf, '>')
			}
		}
		if len(s.buf) >= chunkSize && s.flush() != nil {
			return s.err
		}
	}
	return nil
}

// WriteByte appends one byte to the output, such as the newline between
// two results.
func (s *Serializer) WriteByte(c byte) error {
	if s.err != nil {
		return s.err
	}
	s.buf = append(s.buf, c)
	if len(s.buf) >= chunkSize {
		return s.flush()
	}
	return nil
}

// Flush writes out what is buffered and returns the first error of the
// serialization.
func (s *Serializer) Flush() error {
	if s.err == nil && len(s.buf) > 0 {
		s.flush()
	}
	return s.err
}

// flush hands the chunk to the writer after polling the context.
func (s *Serializer) flush() error {
	if s.err = ctxErr(s.ctx); s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}
