package search

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// postingsFromText builds one document's postings straight from a string,
// without an engine behind it (Rank and Candidates only need the columnar
// data).
func postingsFromText(text string) *DocPostings {
	var tc termCounts
	tc.add([]byte(text))
	return tc.freeze()
}

func testIndex() *Index {
	ix := NewIndex()
	ix.Add("a", postingsFromText("gold rush gold mine"))
	ix.Add("b", postingsFromText("silver age silver screen silver"))
	ix.Add("c", postingsFromText("gold and silver coins"))
	return ix
}

func TestPostingsTF(t *testing.T) {
	dp := postingsFromText("Gold rush GOLD mine gold")
	if got := dp.TF("gold"); got != 3 {
		t.Fatalf("TF(gold) = %d", got)
	}
	if got := dp.TF("rush"); got != 1 {
		t.Fatalf("TF(rush) = %d", got)
	}
	if got := dp.TF("absent"); got != 0 {
		t.Fatalf("TF(absent) = %d", got)
	}
	if dp.Tokens() != 5 {
		t.Fatalf("Tokens = %d", dp.Tokens())
	}
	if dp.NumTerms() != 3 {
		t.Fatalf("NumTerms = %d", dp.NumTerms())
	}
}

func TestIndexAddRemoveSnapshot(t *testing.T) {
	ix := testIndex()
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	s := ix.Snapshot()
	if s.Total != 4+5+4 {
		t.Fatalf("Total = %d", s.Total)
	}
	// Replacing a document adjusts the aggregate token count.
	ix.Add("a", postingsFromText("one two"))
	if got := ix.Snapshot().Total; got != 2+5+4 {
		t.Fatalf("Total after replace = %d", got)
	}
	if !ix.Remove("a") || ix.Remove("a") {
		t.Fatal("Remove semantics")
	}
	if got := ix.Snapshot().Total; got != 5+4 {
		t.Fatalf("Total after remove = %d", got)
	}
	// The earlier snapshot is unaffected by all of the above.
	if len(s.Docs) != 3 || s.Total != 13 {
		t.Fatal("snapshot mutated by later Add/Remove")
	}
}

func TestAvgLen(t *testing.T) {
	if got := (Snapshot{}).AvgLen(); got != 1 {
		t.Fatalf("empty AvgLen = %v", got)
	}
	if got := testIndex().Snapshot().AvgLen(); math.Abs(got-13.0/3) > 1e-12 {
		t.Fatalf("AvgLen = %v", got)
	}
}

func TestCandidates(t *testing.T) {
	s := testIndex().Snapshot()
	ctx := context.Background()
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{"gold", []string{"a", "c"}},
		{"silver", []string{"b", "c"}},
		{"gold silver", []string{"c"}},
		{"gold absent", []string{}},
		// A phrase-only query keeps every document as a candidate: phrases
		// resolve later against each FM-index.
		{`"gold rush"`, []string{"a", "b", "c"}},
		{`silver "gold rush"`, []string{"b", "c"}},
	} {
		terms, err := ParseQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Candidates(ctx, s, terms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Candidates(%q) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestRankOrderAndConjunction(t *testing.T) {
	s := testIndex().Snapshot()
	ctx := context.Background()
	terms, _ := ParseQuery("gold")
	cands, _ := Candidates(ctx, s, terms)
	scored, err := Rank(ctx, s, terms, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != 2 {
		t.Fatalf("scored = %+v", scored)
	}
	// "a" has tf=2 in 4 tokens; "c" has tf=1 in 4 tokens: same idf and
	// length, higher tf wins.
	if scored[0].Doc != "a" || scored[1].Doc != "c" {
		t.Fatalf("order = %s, %s", scored[0].Doc, scored[1].Doc)
	}
	if scored[0].Score <= scored[1].Score || scored[1].Score <= 0 {
		t.Fatalf("scores = %v, %v", scored[0].Score, scored[1].Score)
	}
	if scored[0].Postings != s.Docs["a"] {
		t.Fatal("Postings pointer not from the snapshot")
	}

	// A phrase term with zero FM count drops the candidate (conjunction).
	terms, _ = ParseQuery(`gold "gold rush"`)
	cands, _ = Candidates(ctx, s, terms)
	phraseTF := map[string][]int64{"a": {1}, "c": {0}}
	scored, err = Rank(ctx, s, terms, cands, phraseTF)
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != 1 || scored[0].Doc != "a" {
		t.Fatalf("phrase conjunction scored = %+v", scored)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	ix := NewIndex()
	// Identical documents: identical scores, so the name decides.
	for _, name := range []string{"z", "m", "a"} {
		ix.Add(name, postingsFromText("same words here"))
	}
	s := ix.Snapshot()
	terms, _ := ParseQuery("words")
	cands, _ := Candidates(context.Background(), s, terms)
	scored, err := Rank(context.Background(), s, terms, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ds := range scored {
		names = append(names, ds.Doc)
	}
	if !reflect.DeepEqual(names, []string{"a", "m", "z"}) {
		t.Fatalf("tie-break order = %v", names)
	}
}

func TestIdfPositive(t *testing.T) {
	for _, tc := range []struct{ n, df int }{{1, 1}, {10, 10}, {10, 1}, {1000000, 999999}, {0, 0}} {
		if v := idf(tc.n, tc.df); v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("idf(%d, %d) = %v", tc.n, tc.df, v)
		}
	}
}

func TestScoringLoopsPollContext(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 4*pollStride; i++ {
		ix.Add(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('A'+i/260%26))+string(rune(i)), postingsFromText("gold"))
	}
	s := ix.Snapshot()
	terms, _ := ParseQuery("gold")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Candidates(ctx, s, terms); err == nil {
		t.Fatal("Candidates ignored a canceled context")
	}
	cands := make([]string, 0, len(s.Docs))
	for name := range s.Docs {
		cands = append(cands, name)
	}
	if _, err := Rank(ctx, s, terms, cands, nil); err == nil {
		t.Fatal("Rank ignored a canceled context")
	}
}

func TestWithDocSharesColumns(t *testing.T) {
	dp := postingsFromText("gold rush")
	cp := dp.WithDoc(nil)
	if cp == dp {
		t.Fatal("WithDoc returned the receiver")
	}
	if &cp.blob[0] != &dp.blob[0] || cp.tokens != dp.tokens {
		t.Fatal("WithDoc copied the columns")
	}
}
