// Package search is the collection-scale ranked full-text tier: per-document
// word postings (term frequencies plus the document's token count),
// answering "which documents match these terms" before any structural
// XPath runs, with BM25 top-k ranking and snippet extraction. A document's
// postings are built from its text store by BuildDoc — core.Engine.Postings
// runs it once per engine, on first use — and the collection tier (package
// collection) builds them when the first search needs them, never when a
// document is opened or reloaded; it derives a Snapshot of the registered
// documents' postings per search and scores against that.
//
// Word terms are matched at word boundaries, case-folded (ASCII); phrase
// terms — quoted in the query — bypass the postings and are counted with
// one FM-index backward search per document, so they match exact
// substrings at full-text granularity. A snippet costs one backward search
// and one located row, whatever the term's frequency.
package search

import (
	"fmt"
	"strings"

	"repro/internal/wordindex"
)

// MaxTokenBytes caps a single token: a word run longer than this indexes
// (and queries) as its first MaxTokenBytes bytes, so adversarial inputs —
// megabyte-long "words" in either a document or a query — cost a bounded
// amount of dictionary space and comparison work. Both sides of a lookup
// apply the same cap, so truncation never breaks matching.
const MaxTokenBytes = 64

// MaxQueryTerms caps the number of terms in one parsed query; scoring work
// is linear in it.
const MaxQueryTerms = 32

// foldByte lowercases ASCII letters; other bytes (including UTF-8
// continuation bytes) pass through, so folding is byte-exact and cheap.
// Full Unicode case folding is deliberately out of scope: the FM-index
// below matches raw bytes anyway.
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// foldInto appends the token of one word run to buf: the run folded and
// cut at the token cap.
func foldInto(buf, word []byte) []byte {
	if len(word) > MaxTokenBytes {
		word = word[:MaxTokenBytes]
	}
	for _, c := range word {
		buf = append(buf, foldByte(c))
	}
	return buf
}

// Tokenize splits text into search tokens: the word boundaries of
// wordindex.ScanWords (letter/digit runs, bytes ≥ 0x80 included), each
// token ASCII-case-folded and capped at MaxTokenBytes. Queries are
// tokenized here and documents by termCounts.add, both through foldInto
// over the same boundaries, so lookups agree with the index by
// construction.
func Tokenize(text []byte) []string {
	var tokens []string
	var buf [MaxTokenBytes]byte
	wordindex.ScanWords(text, func(start, end int) {
		tokens = append(tokens, string(foldInto(buf[:0], text[start:end])))
	})
	return tokens
}

// Term is one unit of a parsed search query: either a single folded word
// (matched through the posting index) or a quoted phrase (matched as an
// exact substring through each document's FM-index).
type Term struct {
	// Text is the match key: the folded token for a word term, the raw
	// quoted content for a phrase term.
	Text string
	// Phrase marks a quoted term.
	Phrase bool
}

func (t Term) String() string {
	if t.Phrase {
		return `"` + t.Text + `"`
	}
	return t.Text
}

// ParseQuery splits a query string into terms: whitespace-separated words
// (each tokenized, so punctuation splits them further) and double-quoted
// phrases. A quoted phrase whose content tokenizes to a single word is
// demoted to a plain word term — the FM-index detour would only cost
// accuracy (no case folding) for no gain in precision. Queries with no
// terms at all, an unterminated quote, or more than MaxQueryTerms terms
// are errors.
func ParseQuery(q string) ([]Term, error) {
	var terms []Term
	add := func(t Term) error {
		if len(terms) >= MaxQueryTerms {
			return fmt.Errorf("search: query has more than %d terms", MaxQueryTerms)
		}
		terms = append(terms, t)
		return nil
	}
	i := 0
	for i < len(q) {
		switch c := q[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			end := strings.IndexByte(q[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("search: unterminated quote in query")
			}
			inner := q[i+1 : i+1+end]
			i += end + 2
			toks := Tokenize([]byte(inner))
			switch len(toks) {
			case 0: // empty or separator-only quotes: nothing to match
			case 1:
				if err := add(Term{Text: toks[0]}); err != nil {
					return nil, err
				}
			default:
				if err := add(Term{Text: strings.TrimSpace(inner), Phrase: true}); err != nil {
					return nil, err
				}
			}
		default:
			end := i
			for end < len(q) && q[end] != ' ' && q[end] != '\t' && q[end] != '\n' && q[end] != '\r' && q[end] != '"' {
				end++
			}
			for _, tok := range Tokenize([]byte(q[i:end])) {
				if err := add(Term{Text: tok}); err != nil {
					return nil, err
				}
			}
			i = end
		}
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("search: empty query")
	}
	return terms, nil
}
