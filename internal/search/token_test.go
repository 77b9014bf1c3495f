package search

import (
	"reflect"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  \t\n ", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}}, // punctuation splits
		{"x86 is 64bit", []string{"x86", "is", "64bit"}},
		{"naïve café", []string{"naïve", "café"}}, // bytes ≥ 0x80 are word bytes
		{"MiXeD CaSe", []string{"mixed", "case"}},
	} {
		if got := Tokenize([]byte(tc.in)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeCapsGiantTokens(t *testing.T) {
	giant := strings.Repeat("a", 3*MaxTokenBytes)
	toks := Tokenize([]byte("x " + giant + " y"))
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", toks)
	}
	if len(toks[1]) != MaxTokenBytes {
		t.Fatalf("giant token kept %d bytes, want %d", len(toks[1]), MaxTokenBytes)
	}
	// Both sides cap identically, so a truncated index entry still matches a
	// truncated query token.
	if toks[1] != strings.Repeat("a", MaxTokenBytes) {
		t.Fatalf("giant token = %q", toks[1])
	}
}

func TestParseQuery(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Term
	}{
		{"gold", []Term{{Text: "gold"}}},
		{"Gold Rush", []Term{{Text: "gold"}, {Text: "rush"}}},
		{"foo-bar", []Term{{Text: "foo"}, {Text: "bar"}}},
		{`"crude oil"`, []Term{{Text: "crude oil", Phrase: true}}},
		{`ocean "coral reef" deep`, []Term{{Text: "ocean"}, {Text: "coral reef", Phrase: true}, {Text: "deep"}}},
		// A single-word quote is demoted to a folded word term.
		{`"Gold"`, []Term{{Text: "gold"}}},
		// Empty or separator-only quotes contribute nothing (but the query
		// still needs at least one term overall).
		{`"" gold " , "`, []Term{{Text: "gold"}}},
		// Quotes glued to a word still separate terms.
		{`a"b c"d`, []Term{{Text: "a"}, {Text: "b c", Phrase: true}, {Text: "d"}}},
	} {
		got, err := ParseQuery(tc.in)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseQuery(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"   ",
		`"unterminated`,
		`gold "unterminated rest`,
		`"" ,,, ""`, // no terms survive
		strings.Repeat("a ", MaxQueryTerms+1),
	} {
		if terms, err := ParseQuery(in); err == nil {
			t.Errorf("ParseQuery(%q) = %v, want error", in, terms)
		}
	}
	// Exactly MaxQueryTerms is fine.
	if _, err := ParseQuery(strings.TrimSpace(strings.Repeat("a ", MaxQueryTerms))); err != nil {
		t.Fatalf("ParseQuery at the cap: %v", err)
	}
}

func TestTermString(t *testing.T) {
	if got := (Term{Text: "gold"}).String(); got != "gold" {
		t.Fatalf("word String = %q", got)
	}
	if got := (Term{Text: "crude oil", Phrase: true}).String(); got != `"crude oil"` {
		t.Fatalf("phrase String = %q", got)
	}
}

// TestCountingAllocatesPerDistinctTerm pins the document-side tokenizer:
// it counts exactly the tokens Tokenize returns, and a token whose term was
// seen before costs no allocation, so building postings allocates with the
// vocabulary, not with the text.
func TestCountingAllocatesPerDistinctTerm(t *testing.T) {
	text := []byte(strings.Repeat("Gold rush, GOLD mine; "+strings.Repeat("Z", 3*MaxTokenBytes)+" ", 200))
	var tc termCounts
	tc.add(text)
	want := map[string]int32{}
	for _, tok := range Tokenize(text) {
		want[tok]++
	}
	dp := tc.freeze()
	if dp.NumTerms() != len(want) || dp.Tokens() != 5*200 {
		t.Fatalf("%d terms, %d tokens; Tokenize gives %d terms", dp.NumTerms(), dp.Tokens(), len(want))
	}
	for tok, n := range want {
		if got := dp.TF(tok); got != n {
			t.Errorf("TF(%q) = %d, Tokenize counts %d", tok, got, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() { tc.add(text) }); n != 0 {
		t.Errorf("counting 1,000 tokens of known terms allocates %.0f objects, want 0", n)
	}
}
