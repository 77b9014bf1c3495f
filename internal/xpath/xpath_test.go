package xpath_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dom"
	"repro/internal/xmltree"
	. "repro/internal/xpath"
)

const paperDoc = `<parts><part name="pen"><color>blue</color><stock>40</stock>Soon discontinued.</part><part name="rubber"><stock>30</stock></part></parts>`

// listDoc mimics the running example of Section 5 (listitem/keyword/emph).
const listDoc = `<doc>
<listitem><keyword>alpha<emph>x</emph></keyword><text>plain</text></listitem>
<listitem><parlist><listitem><keyword>beta</keyword></listitem></parlist><keyword><emph>nested</emph></keyword></listitem>
<section><keyword>gamma</keyword><bold>b</bold></section>
<listitem><keyword>delta Unique</keyword><emph>tail</emph></listitem>
</doc>`

var configs = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"nojump", Options{Eval: automata.Options{NoJump: true}}},
	{"nomemo", Options{Eval: automata.Options{NoMemo: true}}},
	{"noearly", Options{Eval: automata.Options{NoEarly: true}}},
	{"nolazy", Options{Eval: automata.Options{NoLazy: true}}},
	{"naiveall", Options{Eval: automata.Options{NoJump: true, NoMemo: true, NoEarly: true, NoLazy: true}}},
	{"nobottomup", Options{ForceStrategy: StrategyTopDown}},
	{"naivetext", Options{ForceNaiveText: true}},
	{"nofm-nobu", Options{ForceNaiveText: true, ForceStrategy: StrategyTopDown}},
	{"plainscan", Options{PlainCutoff: 1}},
	{"fmonly", Options{PlainCutoff: math.MaxInt}},
}

// checkAgainstOracle verifies Count, Nodes and result identity (by preorder
// numbers) against the DOM oracle, across all evaluator configurations.
func checkAgainstOracle(t *testing.T, docSrc string, queries []string) {
	t.Helper()
	d, err := xmltree.Parse([]byte(docSrc), xmltree.Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dom.Parse([]byte(docSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range queries {
		want, err := tree.Eval(qs)
		if err != nil {
			t.Fatalf("oracle eval %q: %v", qs, err)
		}
		wantOrders := make([]int, len(want))
		for i, n := range want {
			wantOrders[i] = n.Order
		}
		for _, cfg := range configs {
			q, err := Compile(qs, d, cfg.opts)
			if err != nil {
				t.Fatalf("[%s] compile %q: %v", cfg.name, qs, err)
			}
			if got, _ := q.CountCtx(context.Background()); got != int64(len(want)) {
				t.Errorf("[%s] Count(%q)=%d want %d (strategy %s)", cfg.name, qs, got, len(want), q.Strategy())
				continue
			}
			nodes, _ := q.NodesCtx(context.Background())
			if len(nodes) != len(want) {
				t.Errorf("[%s] Nodes(%q) len=%d want %d", cfg.name, qs, len(nodes), len(want))
				continue
			}
			for i, x := range nodes {
				if d.Preorder(x) != wantOrders[i] {
					t.Errorf("[%s] Nodes(%q)[%d] preorder=%d want %d", cfg.name, qs, i, d.Preorder(x), wantOrders[i])
					break
				}
			}
		}
	}
}

func TestPaperDocQueries(t *testing.T) {
	checkAgainstOracle(t, paperDoc, []string{
		"/parts",
		"/parts/part",
		"/parts/part/stock",
		"//stock",
		"//part/color",
		"//part[color]/stock",
		"//part[not(color)]",
		"//part[@name]",
		"//part[attribute::name]",
		"/parts/part[stock and color]",
		"/parts/part[stock or color]",
		"//text()",
		"//*",
		"//*//*",
		"/*[ .//* ]",
		"//part[ @name = 'pen' ]",
		"//part[ @name = 'nosuch' ]",
		"//part[ contains(., 'discontinued') ]",
		"//part[ starts-with(color, 'bl') ]",
		"//color[ . = 'blue' ]",
		"//stock[ . = '40' ]",
		"//stock[ ends-with(., '0') ]",
		"//part/following-sibling::part",
		"//color/following-sibling::stock",
		"//part[color/following-sibling::stock]",
		"//nosuchtag",
		"//part[nosuchtag]",
		"//part[contains(@name, 'ub')]",
		"//color/parent::part",
		"//color/..",
		"//color/../stock",
		"//stock/ancestor::*",
		"//stock/ancestor-or-self::node()",
		"//stock/preceding-sibling::color",
		"//part/preceding-sibling::part",
		"//color/following::stock",
		"//stock/preceding::color",
		"//part[preceding-sibling::part]",
		"//stock[parent::part[@name = 'pen']]",
		"//part[color]/../part[not(color)]",
		"//stock[ancestor::parts]",
		"//color[following::part]",
		"/parts/part/color/ancestor::part/stock",
	})
}

func TestListDocQueries(t *testing.T) {
	checkAgainstOracle(t, listDoc, []string{
		"/descendant::listitem/descendant::keyword[child::emph]",
		"//listitem//keyword",
		"//listitem/keyword",
		"//listitem[.//keyword]",
		"//listitem[not(.//keyword/emph)]",
		"//listitem[ (.//keyword or .//emph) and (.//emph or .//bold) ]",
		"//keyword[contains(., 'Unique')]",
		"//listitem//keyword[contains(., 'Unique')]",
		"//listitem[.//keyword[contains(., 'beta')]]",
		"//section/keyword",
		"//keyword/emph",
		"//keyword[emph]",
		"//keyword[not(emph)]",
		"//*[keyword]",
		"//listitem/*",
		"//listitem/node()",
		"//listitem//text()",
		"//text()[contains(., 'plain')]",
		"//keyword[starts-with(., 'alpha')]",
		"//keyword[. = 'gamma']",
		"//keyword[. = 'beta']",
		"//listitem[keyword and not(parlist)]",
		"//emph/ancestor::listitem",
		"//keyword/ancestor-or-self::keyword",
		"//emph/ancestor::keyword/..",
		"//keyword[parent::listitem]",
		"//keyword[parent::section]",
		"//emph[ancestor::parlist]",
		"//keyword/following::emph",
		"//emph/preceding::keyword",
		"//bold/preceding-sibling::keyword",
		"//keyword[following::bold]",
		"//listitem[.//keyword/ancestor::parlist]",
		"//keyword[contains(., 'beta')]/ancestor::listitem",
		"//emph[starts-with(., 'tail')]/preceding::keyword",
		"//keyword[ancestor::listitem and not(emph)]",
		"//section/keyword/following::*",
		"//parlist/ancestor-or-self::listitem/keyword",
		"//keyword[contains(ancestor::listitem, 'plain')]",
		"//text()[preceding::bold]",
		"//keyword[preceding::keyword[contains(., 'alpha')]]",
	})
}

// TestFullAxisQueries exercises every axis spelling end to end against the
// oracle, including axes as the first step (evaluated from the root
// context) and chains that alternate forward and backward movement.
func TestFullAxisQueries(t *testing.T) {
	checkAgainstOracle(t, listDoc, []string{
		"/child::doc",
		"/doc/child::listitem",
		"/descendant::keyword",
		"//keyword/self::node()",
		"/parent::node()",
		"/..",
		"/ancestor::node()",
		"/ancestor-or-self::node()",
		"/following::node()",
		"/preceding::node()",
		"/following-sibling::node()",
		"/preceding-sibling::node()",
		"//emph/parent::keyword/parent::listitem",
		"//emph/ancestor::listitem//text()",
		"//keyword/../..",
		"//parlist/preceding::text()",
		"//keyword/following::text()",
		"//keyword[../bold]",
		"//emph[../../parlist]",
		"//keyword[ancestor-or-self::*[parent::doc]]",
		"//*[preceding-sibling::listitem and following-sibling::listitem]",
		"//keyword[not(preceding::keyword)]",
		"//keyword[following::keyword and preceding::keyword]",
		"//emph/ancestor::*[keyword]/..",
		"//listitem/descendant::emph/ancestor-or-self::keyword",
		"/descendant-or-self::node()",
		"/descendant-or-self::keyword",
		"//keyword/descendant-or-self::keyword",
		"//listitem/descendant-or-self::*/keyword",
		"//keyword[descendant-or-self::*[contains(., 'beta')]]",
		"//emph/ancestor::listitem/descendant-or-self::text()",
	})
}

func TestStrategySelection(t *testing.T) {
	d, err := xmltree.Parse([]byte(listDoc), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Selective text predicate on a pure-text target: bottom-up with FM.
	q, err := Compile("//listitem//emph[contains(., 'tail')]", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !q.UsesBottomUp() {
		t.Errorf("expected bottom-up, strategy=%s", q.Strategy())
	}
	if got, _ := q.CountCtx(context.Background()); got != 1 {
		t.Errorf("count=%d", got)
	}
	// Complex filter: must stay top-down.
	q2, err := Compile("//listitem[.//keyword and .//emph]", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q2.UsesBottomUp() {
		t.Error("boolean filter should not be bottom-up")
	}
	// Mixed content target: occurrence spans for contains, naive text for
	// the other functions.
	q3, err := Compile("//listitem[contains(., 'beta')]", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(q3.Strategy(), ",spans") {
		t.Errorf("contains on mixed content should use spans, got %s", q3.Strategy())
	}
	q3, err = Compile("//listitem[starts-with(., 'beta')]", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q3.Strategy(), "naive") {
		t.Errorf("starts-with on mixed content should use naive text, got %s", q3.Strategy())
	}
	// Pure-text element target: fm.
	q4, err := Compile("//emph[contains(., 'nest')]", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q4.Strategy(), "fm") {
		t.Errorf("pure text should use fm, got %s", q4.Strategy())
	}
}

func TestSerialize(t *testing.T) {
	d, err := xmltree.Parse([]byte(paperDoc), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("//color", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := q.SerializeCtx(context.Background(), &buf)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if strings.TrimSpace(buf.String()) != "<color>blue</color>" {
		t.Fatalf("serialized %q", buf.String())
	}

	// Text and attribute results are escaped like any text leaf, so every
	// result is well-formed XML content.
	d, err = xmltree.Parse([]byte(`<r><a k="1 &lt; &quot;2&quot;">x &amp; y &lt; z</a></r>`), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]string{
		"//a/text()": "x &amp; y &lt; z\n",
		"//a/@k":     "<k>1 &lt; \"2\"</k>\n",
		"//a":        "<a k=\"1 &lt; &quot;2&quot;\">x &amp; y &lt; z</a>\n",
	} {
		q, err := Compile(src, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if _, err := q.SerializeCtx(context.Background(), &buf); err != nil || buf.String() != want {
			t.Errorf("%s: serialized %q (%v), want %q", src, buf.String(), err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	d, _ := xmltree.Parse([]byte(paperDoc), xmltree.Options{SkipFM: true})
	bad := []string{
		"",
		"//",
		"//part[",
		"//part[]",
		"//nosuchaxis::x",
		"//part[contains(.)]",
		"//part[contains(., 'x'",
		"//part[\"lit\"]",
		"//part = 'x'",
		"//part[child::]",
		"//...",
	}
	for _, qs := range bad {
		if _, err := Compile(qs, d, Options{}); err == nil {
			t.Errorf("expected error for %q", qs)
		}
	}
}

func TestStatsReported(t *testing.T) {
	d, _ := xmltree.Parse([]byte(listDoc), xmltree.Options{})
	q, _ := Compile("//keyword", d, Options{})
	if n, _ := q.CountCtx(context.Background()); n != 5 {
		t.Fatalf("count=%d", n)
	}
	st := q.Stats()
	if st.Marked != 5 {
		t.Errorf("marked=%d", st.Marked)
	}
	// With jumping + lazy sets, far fewer nodes are visited than exist.
	if st.Visited >= int64(d.NumNodes()) {
		t.Errorf("visited=%d nodes=%d: jumping had no effect", st.Visited, d.NumNodes())
	}
}

// --- randomized differential testing ---

var fuzzTags = []string{"a", "b", "c", "d", "e"}

func randomXML(r *rand.Rand, maxNodes int) string {
	var sb strings.Builder
	var build func(depth int, budget *int)
	build = func(depth int, budget *int) {
		for *budget > 0 && r.Intn(3) != 0 {
			*budget--
			tag := fuzzTags[r.Intn(len(fuzzTags))]
			sb.WriteString("<" + tag)
			if r.Intn(4) == 0 {
				sb.WriteString(` k="` + fuzzTags[r.Intn(len(fuzzTags))] + `"`)
			}
			sb.WriteString(">")
			if r.Intn(3) == 0 {
				words := []string{"foo", "bar", "baz qux", "hello", "xyz"}
				sb.WriteString(words[r.Intn(len(words))])
			}
			if depth < 6 {
				build(depth+1, budget)
			}
			sb.WriteString("</" + tag + ">")
		}
	}
	sb.WriteString("<root>")
	budget := 2 + r.Intn(maxNodes)
	build(0, &budget)
	sb.WriteString("</root>")
	return sb.String()
}

var fuzzQueries = []string{
	"//a", "//a/b", "//a//b", "/root/a", "//a[b]", "//a[.//b]",
	"//a[not(b)]", "//a[b or c]", "//a[b and .//c]", "//*", "//*//*",
	"//a/*", "//a/text()", "//a[contains(., 'foo')]",
	"//a[starts-with(., 'bar')]", "//a[. = 'hello']",
	"//a[@k]", "//a[@k = 'b']", "//a/following-sibling::b",
	"//a[b/following-sibling::c]", "//a[not(.//b) and c]",
	"//a//b[contains(., 'qux')]", "//d//e", "//a/b/c",
	"//b/..", "//b/parent::a", "//b/ancestor::a", "//c/ancestor-or-self::*",
	"//b/preceding-sibling::a", "//b/preceding::c", "//a/following::b",
	"//a[..]", "//b[parent::a]", "//c[ancestor::a[@k]]",
	"//b[preceding-sibling::b]", "//a[preceding::b]", "//b[following::c]",
	"//a//b/../c", "//e/ancestor::a/b", "//b[contains(.., 'foo')]",
	"//c[. = 'hello']/preceding::b", "//a[b]/following::a[c]",
	"//d/ancestor-or-self::d", "//a/b/preceding-sibling::*",
}

func TestRandomizedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		doc := randomXML(r, 120)
		checkAgainstOracle(t, doc, fuzzQueries)
	}
}

func TestDeepRecursiveTags(t *testing.T) {
	// Recursive labels (listitem inside listitem) stress TaggedDesc reuse.
	doc := "<r>" + strings.Repeat("<a><b>", 30) + "x" + strings.Repeat("</b></a>", 30) + "</r>"
	checkAgainstOracle(t, doc, []string{"//a//b", "//a/b", "//a[.//b]", "//b[.//a]", "//a//a", "//*//*//*"})
}

func TestWideDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 500; i++ {
		if i%7 == 0 {
			sb.WriteString("<a><b>k</b></a>")
		} else {
			sb.WriteString("<c>t</c>")
		}
	}
	sb.WriteString("</r>")
	checkAgainstOracle(t, sb.String(), []string{"//a", "//a/b", "//c", "//r/*", "//a[b]", "//b[contains(., 'k')]"})
}
