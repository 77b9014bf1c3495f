package xmlparse_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xmlparse"
)

// fuzzHandler checks the SAX stream discipline: starts and ends nest
// properly and text only arrives inside the root element.
type fuzzHandler struct {
	depth  int
	events int
	bad    string
}

func (h *fuzzHandler) StartElement(name string, attrs []xmlparse.Attr) error {
	h.events++
	if name == "" {
		h.bad = "empty element name"
	}
	for _, a := range attrs {
		if a.Name == "" {
			h.bad = "empty attribute name"
		}
	}
	h.depth++
	return nil
}

func (h *fuzzHandler) EndElement(name string) error {
	h.events++
	h.depth--
	if h.depth < 0 {
		h.bad = "end before start"
	}
	return nil
}

func (h *fuzzHandler) Text(data []byte) error {
	h.events++
	if h.depth == 0 {
		h.bad = "text outside the root element"
	}
	if len(data) == 0 {
		h.bad = "empty text event"
	}
	return nil
}

// FuzzParse pins the parser contract on arbitrary bytes: Parse either
// returns a *SyntaxError or delivers a well-nested event stream — it must
// never panic. Run with `go test -fuzz FuzzParse ./internal/xmlparse`; a
// plain `go test` run executes the seed corpus as regression cases.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`<a/>`,
		`<a x="1" y='2'><b>text</b><c/></a>`,
		`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- c --><![CDATA[<raw>]]></a>`,
		`<a>&amp;&lt;&gt;&quot;&apos;&#65;&#x41;</a>`,
		`<a>`,
		`</a>`,
		`<a></b>`,
		`<a b=c/>`,
		`<a b="1/>`,
		`text outside`,
		`<a><![CDATA[unterminated`,
		`<a>&unknown;</a>`,
		`<a>&#xFFFFFFFF;</a>`,
		`<a><b></b></a><c/>`,
		"<\x00a/>",
		`<a ` + "\xff" + `="1"/>`,
		// Markup the scanner skips to a terminator: many of each, a
		// terminator split across units, and each one unterminated.
		`<a>` + strings.Repeat(`x<!-- c -- -->`, 64) + `</a>`,
		`<a>` + strings.Repeat(`<![CDATA[]]]]>`, 64) + `</a>`,
		`<a>` + strings.Repeat(`<?pi ??>x`, 64) + `</a>`,
		`<a><!-- c ->`, `<a><![CDATA[]]`, `<a><?pi ?`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &fuzzHandler{}
		err := xmlparse.Parse(data, h)
		if err != nil {
			return
		}
		if h.bad != "" {
			t.Fatalf("accepted %q but event stream is malformed: %s", data, h.bad)
		}
		if h.depth != 0 {
			t.Fatalf("accepted %q with unbalanced elements (depth %d)", data, h.depth)
		}
		if h.events == 0 {
			t.Fatalf("accepted %q with no events (no root element?)", data)
		}
	})
}

// valueHandler records the root's attributes and the concatenated text.
type valueHandler struct {
	attrs []xmlparse.Attr
	text  []byte
}

func (h *valueHandler) StartElement(_ string, attrs []xmlparse.Attr) error {
	h.attrs = attrs
	return nil
}

func (h *valueHandler) EndElement(string) error { return nil }

func (h *valueHandler) Text(data []byte) error {
	h.text = append(h.text, data...)
	return nil
}

// FuzzAppendEscape pins the serializer's escaping against the parser: any
// bytes without NUL, escaped into <a k="…">…</a> (attribute and text
// escaping respectively), must parse back to the same attribute value and
// the same text.
func FuzzAppendEscape(f *testing.F) {
	for _, s := range []string{
		``,
		`plain`,
		`a<b&c>"d'e`,
		`&amp; already escaped &lt;`,
		`]]> ' " <!-- -->`,
		"tab\tnewline\ncr\r \xff\xfe 日本",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		if bytes.IndexByte(s, 0) >= 0 {
			t.Skip("NUL never reaches the serializer: the text store replaces it")
		}
		doc := append([]byte(`<a k="`), xmlparse.AppendEscape(nil, s, true)...)
		doc = append(doc, `">`...)
		doc = append(xmlparse.AppendEscape(doc, s, false), `</a>`...)
		h := &valueHandler{}
		if err := xmlparse.Parse(doc, h); err != nil {
			t.Fatalf("escaped %q does not parse: %v (doc %q)", s, err, doc)
		}
		if len(h.attrs) != 1 || h.attrs[0].Value != string(s) {
			t.Fatalf("attribute of %q parsed back as %+v", s, h.attrs)
		}
		if !bytes.Equal(h.text, s) {
			t.Fatalf("text %q parsed back as %q", s, h.text)
		}
	})
}
