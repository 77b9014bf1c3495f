package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/xmlparse"
)

// workload is one traffic mix over one corpus. Every workload goes through
// the same run shape (set-up, oracle, timed closed loop), so every workload
// reports every end-to-end metric.
type workload struct {
	name string
	// docs sizes the corpus; scale 1 is the recorded size.
	docs func(scale float64) []docSpec
	// ops derives the distinct operations from the generated XML and the
	// run seed; the second result is how often each is issued per pass of
	// the sequence.
	ops func(seed uint64, xml map[string][]byte) ([]*opSpec, []int, error)
	// setups is how many times a run sets up from scratch; setup_s and
	// build_mb_per_s are medians over the passes. About ten seconds' worth:
	// a pass of tree-serve takes 1.2 s, one of text-serve, which warms 345
	// cold queries, 5.5 s.
	setups int
	// openRate is the open-loop phase's constant rate in ops/s: about half
	// the closed-loop ops_per_s measured at the commit that defined the
	// benchmark (see README.md).
	openRate float64
}

// workloads are the four traffic mixes; BENCHMARK.json and README.md say
// why each was chosen. The op functions say how each mix is weighted.
var workloads = []workload{
	{name: "tree-serve", docs: twoDocs("xmark", "treebank", bigDoc), ops: treeOps, setups: 7, openRate: 140},
	{name: "text-serve", docs: twoDocs("medline", "wiki", bigDoc/2), ops: textOps, setups: 3, openRate: 65},
	{name: "search-serve", docs: searchDocs, ops: searchOps, setups: 5, openRate: 85},
	{name: "stream-serve", docs: twoDocs("xmark", "medline", bigDoc), ops: streamOps, setups: 5, openRate: 50},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bigDoc is the size of a document of the two-document corpora. text-serve
// uses half of it: a query it has not seen lately costs that workload a
// compile and an FM-index locate pass, and set-up issues every distinct
// query once, three times over.
const bigDoc = 4 << 20

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 4096 {
		return s
	}
	return 4096
}

func twoDocs(a, b string, bytes int) func(float64) []docSpec {
	return func(scale float64) []docSpec {
		return []docSpec{
			{name: a, kind: a, bytes: scaled(bytes, scale), salt: 1},
			{name: b, kind: b, bytes: scaled(bytes, scale), salt: 2},
		}
	}
}

// searchDocs is 24 documents of 256 KB, the three text-bearing kinds
// round-robin, each from its own seed.
func searchDocs(scale float64) []docSpec {
	kinds := []string{"medline", "wiki", "xmark"}
	docs := make([]docSpec, 24)
	for i := range docs {
		docs[i] = docSpec{name: fmt.Sprintf("d%02d", i), kind: kinds[i%len(kinds)], bytes: scaled(256<<10, scale), salt: uint64(10 + i)}
	}
	return docs
}

// Figure 9's structural queries.
var xmarkQueries = []struct{ id, q string }{
	{"X01", "/site/regions"},
	{"X02", "/site/regions/*/item"},
	{"X03", "/site/closed_auctions/closed_auction/annotation/description/text/keyword"},
	{"X04", "//listitem//keyword"},
	{"X05", "/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date"},
	{"X06", "/site/closed_auctions/closed_auction[.//keyword]/date"},
	{"X07", "/site/people/person[profile/gender and profile/age]/name"},
	{"X08", "/site/people/person[phone or homepage]/name"},
	{"X09", "/site/people/person[address and (phone or homepage) and (creditcard or profile)]/name"},
	{"X10", "//listitem[not(.//keyword/emph)]//parlist"},
	{"X11", "//listitem[(.//keyword or .//emph) and (.//emph or .//bold)]/parlist"},
	{"X12", "//people[.//person[not(address)] and .//person[not(watches)]]/person[watches]"},
}

var treebankQueries = []struct{ id, q string }{
	{"T01", "//NP"},
	{"T02", "//S[.//VP and .//NP]/VP/PP[IN]/NP/VBN"},
	{"T03", "//NP[.//JJ or .//CC]"},
	{"T04", "//CC[not(.//JJ)]"},
	{"T05", "//NN[.//VBZ or .//IN]/*[.//NN or .//_QUOTE_]"},
}

// treeOps: every Figure 9 query as a /count, five of them also as /exists.
// Three in four operations are counts. Among the counts X04 — a descendant
// join over the recursive description content — is issued most, so that
// the operations around the median are X04 counts; the slowest twentieth
// are the Treebank queries T02 and T03, which visit the whole deep tree.
func treeOps(seed uint64, xml map[string][]byte) ([]*opSpec, []int, error) {
	var ops []*opSpec
	var reps []int
	for _, q := range xmarkQueries {
		ops = append(ops, countOp("count/"+q.id, "xmark", q.q))
		reps = append(reps, treeCountReps[q.id])
	}
	for _, q := range treebankQueries {
		ops = append(ops, countOp("count/"+q.id, "treebank", q.q))
		reps = append(reps, treeCountReps[q.id])
	}
	for _, id := range []string{"X03", "X04", "X10"} {
		ops = append(ops, existsOp("exists/"+id, "xmark", queryByID(id)))
		reps = append(reps, 6)
	}
	for _, id := range []string{"T01", "T03"} {
		ops = append(ops, existsOp("exists/"+id, "treebank", queryByID(id)))
		reps = append(reps, 6)
	}
	return ops, reps, nil
}

// treeCountReps is how often each count is issued per pass: 90 counts to
// the 30 exists above.
var treeCountReps = map[string]int{
	"X01": 2, "X02": 2, "X03": 2, "X04": 34, "X05": 2, "X06": 2, "X07": 6, "X08": 2, "X09": 6,
	"X10": 5, "X11": 4, "X12": 6, "T01": 2, "T02": 3, "T03": 3, "T04": 5, "T05": 4,
}

func queryByID(id string) string {
	for _, q := range xmarkQueries {
		if q.id == id {
			return q.q
		}
	}
	for _, q := range treebankQueries {
		if q.id == id {
			return q.q
		}
	}
	panic("benchmark: no query " + id)
}

// vocabSize is the number of literals a text workload draws from.
const vocabSize = 40

// textOps instantiates the Figure 14 shapes with literals from a vocabulary
// of vocabSize words of the run's own documents, spread evenly over the
// order of how often each occurs — so every run covers rare, medium and
// frequent literals alike, and the planner takes the bottom-up strategy for
// some and top-down for others.
// Every distinct query is issued once per pass of the sequence and there are
// more of them than the compiled-query cache holds: a least-recently-used
// cache under a repeated scan always misses, so every operation pays the
// compile and the FM-index pass that builds its literals' match sets.
func textOps(seed uint64, xml map[string][]byte) ([]*opSpec, []int, error) {
	r := gen.NewRNG(seed ^ 0x7e87)
	med, err := vocabulary(xml["medline"], "AbstractText", vocabSize)
	if err != nil {
		return nil, nil, err
	}
	wiki, err := vocabulary(xml["wiki"], "text", vocabSize)
	if err != nil {
		return nil, nil, err
	}
	names, err := vocabulary(xml["medline"], "LastName", 8)
	if err != nil {
		return nil, nil, err
	}
	var ops []*opSpec
	add := func(id, doc, format string, lits ...string) {
		args := make([]any, len(lits))
		for i, l := range lits {
			args[i] = l
		}
		ops = append(ops, countOp("count/"+id, doc, fmt.Sprintf(format, args...)))
	}
	// Five shapes over the whole vocabulary. M01, M03 and M04 each take two
	// literals, one of them frequent, so the planner always runs them
	// top-down: together they are a third of the operations and own the
	// median.
	for i, w := range med {
		w2 := med[(i+vocabSize/2)%len(med)] // a literal from the other half of the frequency order
		add("M01", "medline", `//Article[.//AbstractText[contains(., "%s") or contains(., "%s")]]`, w, w2)
		add("M02", "medline", `//Article[.//AbstractText[contains(., "%s")]]`, w)
		add("M03", "medline", `//Article[.//AbstractText[contains(., "%s") or contains(., "for")]]`, w)
		add("M04", "medline", `//Article[.//AbstractText[contains(., "%s") and not(contains(., "%s"))]]`, w, w2)
		add("M07", "medline", `//*//AbstractText[contains(., "%s")]`, w)
	}
	for i, w := range wiki {
		add("W-title", "wiki", `//page[.//text[contains(., "%s")]]/title`, w)
		add("W-or", "wiki", `//page[.//text[contains(., "%s") or contains(., "the")]]/title`, w)
		if i%3 == 0 {
			add("W-starts", "wiki", `//text[starts-with(., "%s")]`, w)
		}
	}
	for _, n := range names {
		add("M05", "medline", `//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., "%s")]]`, n[:3])
		add("M06", "medline", `//*[.//LastName[contains(., "%s")]]`, n)
	}
	for _, s := range []string{"Article", "Review", "Letter", "Study", "Reports", "Trial", "Editorial"} {
		add("M08", "medline", `//*[.//PublicationType[ends-with(., "%s")]]`, s)
	}
	for _, c := range []string{"AUSTRALIA", "United", "England", "Germany", "Finland", "Japan", "France", "Canada", "Chile", "land"} {
		add("M09", "medline", `//MedlineCitation[.//Country[contains(., "%s")]]`, c)
	}
	// M10 and M11 take the naive path (mixed content, any element), which
	// scans whole string values. M11 is the slowest class and one operation
	// in forty, so the 99th percentile is always an M11.
	month := r.Intn(12)
	for i := 0; i < 10; i++ {
		add("M10", "medline", `//MedlineCitation[contains(., "%s %s")]`, med[len(med)-1-i], med[len(med)-11-i])
		if i < 8 {
			add("M11", "medline", `//*/*[contains(., "%s%s")]`, fmt.Sprint(1996+i), fmt.Sprintf("%02d", 1+(month+5*i)%12))
		}
	}
	ops = dedupe(ops)
	reps := make([]int, len(ops))
	for i := range reps {
		reps[i] = 1
	}
	return ops, reps, nil
}

// dedupe drops operations whose request repeats an earlier one (two strata
// can yield the same literal for a short vocabulary).
func dedupe(ops []*opSpec) []*opSpec {
	seen := map[string]bool{}
	out := ops[:0]
	for _, op := range ops {
		key := op.method + op.target + string(op.body)
		if !seen[key] {
			seen[key] = true
			out = append(out, op)
		}
	}
	return out
}

// textCollector gathers the character data directly inside elements of one
// name, or of every element when the name is empty.
type textCollector struct {
	elem  string
	stack []string
	texts [][]byte
}

func (c *textCollector) StartElement(name string, _ []xmlparse.Attr) error {
	c.stack = append(c.stack, name)
	return nil
}

func (c *textCollector) EndElement(string) error {
	c.stack = c.stack[:len(c.stack)-1]
	return nil
}

func (c *textCollector) Text(data []byte) error {
	if c.elem == "" || len(c.stack) > 0 && c.stack[len(c.stack)-1] == c.elem {
		c.texts = append(c.texts, append([]byte(nil), data...))
	}
	return nil
}

func elementTexts(xml []byte, elem string) ([][]byte, error) {
	c := &textCollector{elem: elem}
	if err := xmlparse.Parse(xml, c); err != nil {
		return nil, err
	}
	if len(c.texts) == 0 {
		return nil, fmt.Errorf("benchmark: no text under <%s>", elem)
	}
	return c.texts, nil
}

// words returns the distinct alphabetic words of at least three letters.
func words(text []byte) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range strings.FieldsFunc(string(text), func(r rune) bool { return r > 0x7f || !wordByte(byte(r)) }) {
		if len(w) >= 3 && isAlpha(w) && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func isAlpha(w string) bool {
	for i := 0; i < len(w); i++ {
		if c := w[i] | 0x20; c < 'a' || c > 'z' {
			return false
		}
	}
	return true
}

// sampleBytes is how much text a vocabulary is ranked on.
const sampleBytes = 512 << 10

// textSample joins texts, newline-separated, up to sampleBytes.
func textSample(texts [][]byte) []byte {
	var b []byte
	for _, t := range texts {
		if len(b)+len(t) > sampleBytes {
			break
		}
		b = append(append(b, t...), '\n')
	}
	return b
}

// byOccurrence orders words by how often each occurs in text as a
// substring (ties by word). Substring occurrences, not word occurrences,
// are what a contains() literal or a snippet search pays for: "her" also
// matches inside "there" and "other".
func byOccurrence(words []string, text []byte) []string {
	n := make(map[string]int, len(words))
	for _, w := range words {
		n[w] = bytes.Count(text, []byte(w))
	}
	sorted := append([]string(nil), words...)
	sort.Slice(sorted, func(i, j int) bool {
		if n[sorted[i]] != n[sorted[j]] {
			return n[sorted[i]] < n[sorted[j]]
		}
		return sorted[i] < sorted[j]
	})
	return sorted
}

// spread picks n words evenly from the occurrence order: the word in the
// middle of each of n equal strata, after setting aside the most frequent
// seventh — the few short words that occur inside many others and would
// each cost several times any other literal. The generators draw from a
// fixed word list, so runs with different seeds pick much the same literals
// of much the same cost; what the seed varies is the documents they are
// looked up in and the order of the operations.
func spread(sorted []string, n int) []string {
	sorted = sorted[:len(sorted)-len(sorted)/7]
	if n > len(sorted) {
		n = len(sorted)
	}
	out := make([]string, n)
	for k := range out {
		out[k] = sorted[(2*k+1)*len(sorted)/(2*n)]
	}
	return out
}

// vocabulary picks n literals from the texts of elem, spread over rare,
// medium and frequent.
func vocabulary(xml []byte, elem string, n int) ([]string, error) {
	texts, err := elementTexts(xml, elem)
	if err != nil {
		return nil, err
	}
	text := textSample(texts)
	return spread(byOccurrence(words(text), text), n), nil
}

// searchOps: the ranked-search mix. Word terms come from three bands of
// document frequency — in at most a quarter of the documents, in more, in
// all — each spread over the occurrence order; phrases are adjacent word
// pairs taken from the documents' own texts, so each occurs. Per pass of
// 100: 40 single-term, 20 two-term, 20 phrase, 10 term+xpath searches and
// 10 scatter-gather counts. Six in ten operations are searches led by a
// word every document holds, whose snippets cost alike: they own the median.
func searchOps(seed uint64, xml map[string][]byte) ([]*opSpec, []int, error) {
	r := gen.NewRNG(seed ^ 0x5ea6c4)
	names := make([]string, 0, len(xml))
	for name := range xml {
		names = append(names, name)
	}
	sort.Strings(names)

	df := map[string]int{}
	var phrases []string
	var text []byte // a sample of every document's text, for the occurrence order
	for _, name := range names {
		texts, err := elementTexts(xml[name], "")
		if err != nil {
			return nil, nil, err
		}
		all := bytes.Join(texts, []byte{'\n'})
		for _, w := range words(bytes.ToLower(all)) {
			df[w]++
		}
		text = append(text, all[:min(len(all), sampleBytes/len(names))]...)
		for tries := 0; tries < 64; tries++ {
			if p := adjacentPair(r, texts[r.Intn(len(texts))]); p != "" {
				phrases = append(phrases, p)
				break
			}
		}
	}
	text = bytes.ToLower(text)
	var rare, some, all []string
	for w, n := range df {
		switch {
		case n == len(names):
			all = append(all, w)
		case n*4 <= len(names):
			rare = append(rare, w)
		default:
			some = append(some, w)
		}
	}
	if len(all) == 0 || len(phrases) == 0 {
		return nil, nil, fmt.Errorf("benchmark: search corpus has no common word or no phrase")
	}
	byCount := byOccurrence(all, text)
	common := spread(byCount, 30)
	vocab := append(append(spread(byOccurrence(rare, text), 5), spread(byOccurrence(some, text), 5)...), common[:27]...)

	var ops []*opSpec
	for _, w := range vocab {
		ops = append(ops, searchOp("search/term", []term{{text: w}}, ""))
	}
	// The three words that occur most often — inside other words too — cost
	// a snippet pass several times the usual: three operations in a hundred,
	// so the 99th percentile is always one of them.
	for _, w := range byCount[len(byCount)-3:] {
		ops = append(ops, searchOp("search/heavy-term", []term{{text: w}}, ""))
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, searchOp("search/two-term", []term{{text: common[i%len(common)]}, {text: common[(i+11)%len(common)]}}, ""))
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, searchOp("search/phrase", []term{{text: phrases[i%len(phrases)], phrase: true}}, ""))
	}
	// Three filters and five fan-out counts over 24 documents are 192
	// compiled queries: within the cache, so this workload's XPath always hits.
	filters := []string{"//AbstractText", "//page/title", "//listitem//keyword"}
	for i := 0; i < 10; i++ {
		ops = append(ops, searchOp("search/term+xpath", []term{{text: common[(3*i+1)%len(common)]}}, filters[i%len(filters)]))
	}
	ops = dedupe(ops)
	reps := make([]int, len(ops))
	for i := range reps {
		reps[i] = 1
	}
	for i, q := range []string{"//keyword", "//LastName", "//title", "//Author", "//listitem//keyword"} {
		ops, reps = append(ops, countAllOp(fmt.Sprintf("count-all/%d", i), q)), append(reps, 2)
	}
	return ops, reps, nil
}

// adjacentPair returns two adjacent space-separated lowercase words of
// text, or "" when the position the seed picks has none.
func adjacentPair(r *gen.RNG, text []byte) string {
	words := strings.Split(string(text), " ")
	if len(words) < 2 {
		return ""
	}
	i := r.Intn(len(words) - 1)
	a, b := words[i], words[i+1]
	if len(a) < 2 || len(b) < 2 || !isAlpha(a) || !isAlpha(b) || a != strings.ToLower(a) || b != strings.ToLower(b) {
		return ""
	}
	return a + " " + b
}

// streamOps: serialization-bound traffic. Four in five operations stream
// the subtrees a query selects (from about 50 to several thousand of them);
// one in five is a batch of eight node-materializing requests.
func streamOps(_ uint64, xml map[string][]byte) ([]*opSpec, []int, error) {
	med, err := vocabulary(xml["medline"], "AbstractText", vocabSize)
	if err != nil {
		return nil, nil, err
	}
	rare := med[:8] // the literals that keep text-predicate result sets small
	var ops []*opSpec
	var reps []int
	add := func(op *opSpec, n int) { ops, reps = append(ops, op), append(reps, n) }
	// The operations around the median serialize a few thousand small
	// subtrees (//Author, //person); the slowest one in thirty serializes
	// the whole auction site, section by section, so the 99th percentile is
	// the server's serialization throughput and nothing else.
	for _, id := range []string{"X03", "X04", "X05", "X06", "X07", "X08", "X09"} {
		add(streamOp("stream/"+id, "xmark", queryByID(id)), 5)
	}
	add(streamOp("stream/X02", "xmark", queryByID("X02")), 8)
	add(streamOp("stream/site", "xmark", "/site/*"), 4)
	add(streamOp("stream/person", "xmark", "//person"), 12)
	add(streamOp("stream/Author", "medline", "//Author"), 24)
	for i, w := range rare[:4] {
		add(streamOp("stream/M02", "medline", fmt.Sprintf(`//Article[.//AbstractText[contains(., "%s")]]`, w)), 2)
		add(streamOp("stream/M07", "medline", fmt.Sprintf(`//*//AbstractText[contains(., "%s")]`, rare[4+i])), 2)
	}
	add(streamOp("stream/M05", "medline", `//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., "Bar")]]`), 5)
	add(streamOp("stream/M09", "medline", `//MedlineCitation[.//Country[contains(., "AUSTRALIA")]]`), 5)

	nodeQueries := []docQuery{
		{"xmark", "//listitem//keyword"}, {"xmark", "/site/people/person[phone or homepage]/name"},
		{"xmark", "/site/regions/*/item"}, {"xmark", "//person"},
		{"medline", "//Author/LastName"}, {"medline", "//MedlineCitation/PMID"},
		{"medline", `//Article[.//AbstractText[contains(., "` + rare[0] + `")]]`}, {"medline", "//PublicationType"},
		{"xmark", "//keyword/emph"}, {"xmark", "/site/closed_auctions/closed_auction/date"},
		{"medline", "//Country"}, {"medline", "//Author[Initials]"},
	}
	for i := 0; i < 6; i++ {
		items := make([]docQuery, 8)
		for j := range items {
			items[j] = nodeQueries[(i*2+j)%len(nodeQueries)]
		}
		add(batchOp(fmt.Sprintf("batch/%d", i), items), 4)
	}
	return ops, reps, nil
}

// sequence is one pass of the timed phase: every distinct operation
// reps[i] times, in an order the seed shuffles. The timed phase repeats the
// pass, in this same order, for as long as it runs — so an operation's
// distance from its previous issue is always one pass, and whether the
// compiled-query cache still holds it depends on the workload alone, not on
// the luck of the order. The same seed gives the same sequence; the counts
// per operation do not depend on the seed at all.
func sequence(seed uint64, reps []int) []int {
	r := gen.NewRNG(seed ^ 0x5e9)
	var pass []int
	for i, n := range reps {
		for k := 0; k < n; k++ {
			pass = append(pass, i)
		}
	}
	for i := len(pass) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pass[i], pass[j] = pass[j], pass[i]
	}
	return pass
}
