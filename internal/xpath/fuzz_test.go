package xpath_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xmltree"
	. "repro/internal/xpath"
)

// FuzzParseQuery pins the parser/compiler contract on arbitrary input:
// ParseQuery either errors or yields an AST that normalizes and compiles
// against a real document without panicking, and the compiled query
// evaluates. Run with `go test -fuzz FuzzParseQuery ./internal/xpath`; in a
// plain `go test` run the seed corpus below is executed as regression
// cases.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"//listitem//keyword",
		"/parts/part[stock and color]",
		"//part[ @name = 'pen' ]/color",
		"//part[ contains(., 'discontinued') ]",
		"//keyword[ starts-with(., 'go') ]/following-sibling::emph",
		"//*[not(.//keyword) or ends-with(., 'x')]//text()",
		"//a[b/c = 'd']",
		"self::node()",
		"//a[.//b[c][.//d = 'e'] and not(@f)]",
		"",
		"//",
		"//a[",
		"//a]'",
		"not(not(not(//a)))",
		strings.Repeat("not(", 300) + "//a" + strings.Repeat(")", 300),
		strings.Repeat("//a[b]", 50),
		"//a[\"unterminated",
		"//a[. = 'quote\\'s']",
		"descendant::*",
		"@attr",
		"//text()[. = '&']",
		"//keyword/parent::listitem",
		"//keyword/..",
		"/part/../listitem",
		"//emph/ancestor::listitem",
		"//emph/ancestor-or-self::node()",
		"//emph/preceding-sibling::keyword",
		"//part/preceding::keyword",
		"//keyword/following::color",
		"//color[parent::part]",
		"//part[preceding-sibling::listitem]",
		"//emph[ancestor::doc and not(preceding::part)]",
		"//keyword[contains(.., 'pen')]",
		"//listitem/descendant-or-self::keyword",
		"/descendant-or-self::node()",
		"..",
		"/..",
		"//..",
		"../..[a]",
		"..::x",
		"//a/..b",
		"preceding::",
	} {
		f.Add(s)
	}
	doc, err := xmltree.Parse([]byte(
		`<doc a="1"><listitem><keyword>gold</keyword><emph>x</emph></listitem>`+
			`<part name="pen"><color>blue</color></part>text</doc>`),
		xmltree.Options{SampleRate: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		path, err := ParseQuery(src)
		if err != nil {
			return
		}
		if path == nil || len(path.Steps) == 0 {
			t.Fatalf("ParseQuery(%q): nil/empty path without error", src)
		}
		// String must not panic on any accepted AST.
		_ = path.String()
		// The full pipeline must not panic; errors are fine (unsupported
		// fragment shapes are rejected during normalize/compile).
		q, err := Compile(src, doc, Options{})
		if err != nil {
			return
		}
		nodes, _ := q.NodesCtx(context.Background())
		if n, _ := q.CountCtx(context.Background()); n != int64(len(nodes)) {
			t.Fatalf("Compile(%q): Count=%d but Nodes has %d entries", src, n, len(nodes))
		}
	})
}
