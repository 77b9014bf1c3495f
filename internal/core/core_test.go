package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

const doc = `<r><a k="v"><b>one</b></a><a><b>two</b><b>three</b></a></r>`

func TestEngineBasics(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(doc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.Count(context.Background(), "//b")
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	nodes, err := e.Nodes(context.Background(), "//a[@k]/b")
	if err != nil || len(nodes) != 1 {
		t.Fatalf("nodes=%v err=%v", nodes, err)
	}
	var buf bytes.Buffer
	k, err := e.Serialize(context.Background(), "//b[. = 'two']", &buf)
	if err != nil || k != 1 || strings.TrimSpace(buf.String()) != "<b>two</b>" {
		t.Fatalf("k=%d out=%q err=%v", k, buf.String(), err)
	}
	if !strings.Contains(e.String(), "nodes=") {
		t.Fatal("String()")
	}
}

func TestWithQueryOptionsSharesIndex(t *testing.T) {
	e, _ := BuildContext(context.Background(), []byte(doc), Config{})
	e2 := e.WithQueryOptions(xpath.Options{Eval: automata.Options{NoJump: true}})
	if e2.Doc != e.Doc {
		t.Fatal("WithQueryOptions must not rebuild the index")
	}
	a, _ := e.Count(context.Background(), "//b")
	b, _ := e2.Count(context.Background(), "//b")
	if a != b {
		t.Fatalf("%d != %d", a, b)
	}
}

func TestWithQueryOptionsCustomPredicate(t *testing.T) {
	e, _ := BuildContext(context.Background(), []byte(doc), Config{})
	e2 := e.WithQueryOptions(xpath.Options{
		CustomMatchSets: map[string]func(string) []int32{
			// match the text id of "two" (the second # text; ids follow
			// document order: v, one, two, three)
			"only": func(string) []int32 { return []int32{2} },
		},
	})
	n, err := e2.Count(context.Background(), "//b[only(., 'x')]")
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// Unknown custom function must be a compile error.
	if _, err := e2.Count(context.Background(), "//b[nosuch(., 'x')]"); err == nil {
		t.Fatal("expected unknown-function error")
	}
}

func TestSkipFMDisablesTextIndex(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(doc), Config{SkipFM: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Doc.FM != nil {
		t.Fatal("FM should be nil")
	}
	// Text predicates still work via the naive path.
	n, err := e.Count(context.Background(), "//b[contains(., 'thr')]")
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// TestXMLLineEndsAndCharRefs: a CRLF line end is indexed as "\n" (XML 1.0
// §2.11), so both string-value predicates see it and serialization writes
// no CR back; a character reference to a non-Char fails the build.
func TestXMLLineEndsAndCharRefs(t *testing.T) {
	ctx := context.Background()
	e, err := BuildContext(ctx, []byte("<r><a>x\r\ny</a></r>"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//a[. = 'x\ny']", "//a[contains(., 'x\ny')]"} {
		if n, err := e.Count(ctx, q); err != nil || n != 1 {
			t.Errorf("%q: count %d, err %v; want 1", q, n, err)
		}
	}
	var buf bytes.Buffer
	if _, err := e.Serialize(ctx, "//a", &buf); err != nil || buf.String() != "<a>x\ny</a>\n" {
		t.Errorf("serialized %q, err %v", buf.String(), err)
	}
	var se *xmlparse.SyntaxError
	if _, err := BuildContext(ctx, []byte("<a>x&#0;y</a>"), Config{}); !errors.As(err, &se) {
		t.Errorf("&#0;: err = %v, want a SyntaxError", err)
	}
}
