// Package bench defines the query suites of the paper's evaluation (Section
// 6). The root package's bench_test.go runs the experiments over them, and
// internal/oracle's suites test checks them against the DOM, streaming and
// scan baselines.
package bench

// XMarkQueries are X01-X17 of Figure 9: XPathMark tree-oriented queries
// over XMark data, plus the crash tests X13-X17.
var XMarkQueries = []struct{ ID, Query string }{
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
	{"X13", "/*[.//*]"},
	{"X14", "//*"},
	{"X15", "//*//*"},
	{"X16", "//*//*//*"},
	{"X17", "//*//*//*//*"},
}

// TreebankQueries are T01-T05 of Figure 9.
var TreebankQueries = []struct{ ID, Query string }{
	{"T01", "//NP"},
	{"T02", "//S[.//VP and .//NP]/VP/PP[IN]/NP/VBN"},
	{"T03", "//NP[.//JJ or .//CC]"},
	{"T04", "//CC[not(.//JJ)]"},
	{"T05", "//NN[.//VBZ or .//IN]/*[.//NN or .//_QUOTE_]"},
}

// MedlineQueries are M01-M11 of Figure 14, with the evaluation strategy the
// paper reports (arrow: bottom-up/top-down; index: fm/naive).
var MedlineQueries = []struct {
	ID, Query string
	// PaperStrategy is Figure 14's annotation: "down,fm", "up,fm", "down,naive".
	PaperStrategy string
}{
	{"M01", `//Article[.//AbstractText[contains(., "foot") or contains(., "feet")]]`, "down,fm"},
	{"M02", `//Article[.//AbstractText[contains(., "plus")]]`, "up,fm"},
	{"M03", `//Article[.//AbstractText[contains(., "plus") or contains(., "for")]]`, "down,fm"},
	{"M04", `//Article[.//AbstractText[contains(., "plus") and not(contains(., "for"))]]`, "down,fm"},
	{"M05", `//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., "Bar")]]`, "up,fm"},
	{"M06", `//*[.//LastName[contains(., "Nguyen")]]`, "up,fm"},
	{"M07", `//*//AbstractText[contains(., "epididymis")]`, "up,fm"},
	{"M08", `//*[.//PublicationType[ends-with(., "Article")]]`, "up,fm"},
	{"M09", `//MedlineCitation[.//Country[contains(., "AUSTRALIA")]]`, "up,fm"},
	{"M10", `//MedlineCitation[contains(., "blood cell")]`, "down,naive"},
	{"M11", `//*/*[contains(., "1999\n11\n26")]`, "down,naive"},
}

// Table2Patterns are the FM-index probe patterns of Tables II/III, ordered
// by increasing frequency in the Medline-like collection.
var Table2Patterns = []string{
	"Bakst", "ruminants", "morphine", "AUSTRALIA", "molecule",
	"brain", "human", "blood", "from", "with", "in", "a", "\n",
}

// WordQueries are W01-W10 of Figure 16 (word-based index experiments);
// "wcontains" is the word-boundary contains backed by the word index.
var WordQueries = []struct {
	ID, Query string
	Medline   bool // W01-W05 run on Medline, W06-W10 on the wiki document
}{
	{"W01", `//Article[.//AbstractText[wcontains(., "blood sample")]]`, true},
	{"W02", `//Article[.//AbstractText[wcontains(., "is such that")]]`, true},
	{"W03", `//Article[.//AbstractText[wcontains(., "various types of") and wcontains(., "immune cells")]]`, true},
	{"W04", `//Article[.//AbstractText[wcontains(., "of the bone marrow")]]`, true},
	{"W05", `//Article[.//AbstractText[wcontains(., "cell") and not(wcontains(., "blood"))]]`, true},
	{"W06", `//text[wcontains(., "dark horse")]`, false},
	{"W07", `//text[wcontains(., "horse") and wcontains(., "princess")]`, false},
	{"W08", `//page/child::title[wcontains(., "crude oil")]`, false},
	{"W09", `//page[.//text[wcontains(., "played on a board")]]/title`, false},
	{"W10", `//page[.//text[wcontains(., "whether accidentally or purposefully")]]/title`, false},
}

// PSSMQueries are the Figure 18 query shapes; the literal selects the
// matrix (M1/M2/M3), thresholds are fractions of the matrix maximum chosen
// to give selective result sets as in the paper.
var PSSMQueries = []struct{ ID, Query string }{
	{"P1", `//promoter[pssm(., 'M1')]`},
	{"P2", `//promoter[pssm(., 'M2')]`},
	{"P3", `//promoter[pssm(., 'M3')]`},
	{"P4", `//exon[.//sequence[pssm(., 'M1')]]`},
	{"P5", `//exon[.//sequence[pssm(., 'M2')]]`},
	{"P6", `//exon[.//sequence[pssm(., 'M3')]]`},
	{"P7", `//*[pssm(., 'M1')]`},
	{"P8", `//*[pssm(., 'M2')]`},
	{"P9", `//*[pssm(., 'M3')]`},
}

// PSSMThresholds are the Figure 18 score thresholds per matrix, as fractions
// of the matrix maximum.
var PSSMThresholds = map[string]float64{"M1": 0.85, "M2": 0.80, "M3": 0.78}

// StreamQueries are the linear paths of the introduction's indexed versus
// streaming comparison.
var StreamQueries = []struct{ ID, Query string }{
	{"S1", "//keyword"},
	{"S2", "//listitem//keyword"},
	{"S3", "/site/regions/*/item"},
	{"S4", "//incategory/@category"},
}
