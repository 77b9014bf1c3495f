package search

import (
	"bytes"
	"sort"

	"repro/internal/mmap"
	"repro/internal/wordindex"
	"repro/internal/xmltree"
)

// DocPostings is one document's slice of the posting index: its distinct
// search tokens in sorted order with their term frequencies, plus the
// document's total token count (the BM25 document length). The structure
// is immutable once built — the collection tier swaps whole values on
// reload, never mutates one in place — so readers need no locking.
//
// Layout is columnar and mmap-friendly: the sorted terms live
// concatenated in one blob with int32 end offsets, term frequencies in a
// parallel int32 array. Term i is blob[offs[i-1]:offs[i]] (offs[-1] = 0).
type DocPostings struct {
	blob   []byte
	offs   []int32
	tf     []int32
	tokens int64

	// doc is the runtime attachment to the document the postings were
	// built from: phrase counting and snippet extraction run against
	// exactly this document, so a search that snapshotted the index before
	// a hot reload stays internally consistent. Not persisted.
	doc *xmltree.Doc

	// backing pins the mapped file the columnar payloads alias, for
	// postings loaded through OpenIndexFile; nil otherwise.
	backing *mmap.File
}

// BuildDoc tokenizes every text of d and builds its postings. The
// returned postings carry d for phrase counting and snippets.
func BuildDoc(d *xmltree.Doc) *DocPostings {
	var tc termCounts
	for id := 0; id < d.NumTexts(); id++ {
		tc.add(d.Text(id))
	}
	dp := tc.freeze()
	dp.doc = d
	return dp
}

// termCounts accumulates the term frequencies of one document. A token is
// folded into a stack buffer and looked up by its bytes, so counting
// allocates once per distinct term, not once per token.
type termCounts struct {
	slot   map[string]int32 // term → index into tf
	tf     []int32
	tokens int64
}

// add counts the tokens of one text (the tokens Tokenize would return).
func (tc *termCounts) add(text []byte) {
	if tc.slot == nil {
		tc.slot = map[string]int32{}
	}
	var buf [MaxTokenBytes]byte
	wordindex.ScanWords(text, func(start, end int) {
		tok := foldInto(buf[:0], text[start:end])
		if i, ok := tc.slot[string(tok)]; ok {
			tc.tf[i]++
		} else {
			tc.slot[string(tok)] = int32(len(tc.tf))
			tc.tf = append(tc.tf, 1)
		}
		tc.tokens++
	})
}

// freeze lays the counts out in the columnar form, terms sorted.
func (tc *termCounts) freeze() *DocPostings {
	terms := make([]string, 0, len(tc.slot))
	size := 0
	for t := range tc.slot {
		terms = append(terms, t)
		size += len(t)
	}
	sort.Strings(terms)
	dp := &DocPostings{
		blob:   make([]byte, 0, size),
		offs:   make([]int32, len(terms)),
		tf:     make([]int32, len(terms)),
		tokens: tc.tokens,
	}
	for i, t := range terms {
		dp.blob = append(dp.blob, t...)
		dp.offs[i] = int32(len(dp.blob))
		dp.tf[i] = tc.tf[tc.slot[t]]
	}
	return dp
}

// NumTerms returns the number of distinct tokens in the document.
func (dp *DocPostings) NumTerms() int { return len(dp.offs) }

// Tokens returns the document's total token count (the BM25 length).
func (dp *DocPostings) Tokens() int64 { return dp.tokens }

// Doc returns the document the postings were built from (nil for
// postings loaded from disk before WithDoc re-attached one).
func (dp *DocPostings) Doc() *xmltree.Doc { return dp.doc }

// WithDoc returns a copy of the postings attached to d; the columnar
// payloads are shared, so the copy is cheap and a mapped load stays
// mapped.
func (dp *DocPostings) WithDoc(d *xmltree.Doc) *DocPostings {
	cp := *dp
	cp.doc = d
	return &cp
}

// term returns the i-th sorted term as a byte slice into the blob.
func (dp *DocPostings) term(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = dp.offs[i-1]
	}
	return dp.blob[start:dp.offs[i]]
}

// TF returns the term frequency of the (folded) token, 0 when absent.
func (dp *DocPostings) TF(token string) int32 {
	i := sort.Search(len(dp.offs), func(i int) bool {
		return bytes.Compare(dp.term(i), []byte(token)) >= 0
	})
	if i < len(dp.offs) && string(dp.term(i)) == token {
		return dp.tf[i]
	}
	return 0
}

// SizeInBytes reports the memory footprint of the postings.
func (dp *DocPostings) SizeInBytes() int {
	return len(dp.blob) + 4*len(dp.offs) + 4*len(dp.tf) + 48
}
