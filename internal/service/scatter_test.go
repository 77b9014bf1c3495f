package service

// Tests for the fan-out (scatter-gather) forms of /count, /exists, /query
// and batch items: doc=* and comma-separated doc lists, merge ordering,
// and per-document error isolation.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
)

// newMultiServer serves three documents with 1, 2 and 3 <book> elements,
// registered out of name order so sortedness is earned, not incidental.
func newMultiServer(t *testing.T) (*httptest.Server, *collection.Collection) {
	t.Helper()
	c := collection.New(collection.Config{Workers: 4})
	for _, d := range []struct {
		name string
		n    int
	}{{"b", 2}, {"c", 3}, {"a", 1}} {
		var sb strings.Builder
		sb.WriteString("<lib>")
		for i := 0; i < d.n; i++ {
			fmt.Fprintf(&sb, "<book>%s%d</book>", d.name, i)
		}
		sb.WriteString("</lib>")
		eng, err := core.BuildContext(context.Background(), []byte(sb.String()), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(d.name, eng)
	}
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)
	return ts, c
}

func decodeMultiCount(t *testing.T, body []byte) multiCountBody {
	t.Helper()
	var out multiCountBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return out
}

func TestScatterCountAll(t *testing.T) {
	ts, _ := newMultiServer(t)
	code, body := get(t, ts.URL+"/count?doc=*&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("count doc=*: %d %s", code, body)
	}
	out := decodeMultiCount(t, body)
	if out.Total != 6 {
		t.Fatalf("total = %d, want 6: %s", out.Total, body)
	}
	// doc=* merges in sorted name order.
	want := []docCount{{Doc: "a", Count: 1}, {Doc: "b", Count: 2}, {Doc: "c", Count: 3}}
	if len(out.Docs) != len(want) {
		t.Fatalf("docs: %s", body)
	}
	for i, w := range want {
		if out.Docs[i] != w {
			t.Fatalf("docs[%d] = %+v, want %+v", i, out.Docs[i], w)
		}
	}
}

func TestScatterCountList(t *testing.T) {
	ts, _ := newMultiServer(t)
	// A comma list keeps the caller's order.
	code, body := get(t, ts.URL+"/count?doc=c%2Ca&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("count doc=c,a: %d %s", code, body)
	}
	out := decodeMultiCount(t, body)
	if out.Total != 4 || len(out.Docs) != 2 || out.Docs[0].Doc != "c" || out.Docs[1].Doc != "a" {
		t.Fatalf("count doc=c,a body: %s", body)
	}
}

func TestScatterErrorIsolation(t *testing.T) {
	ts, _ := newMultiServer(t)
	// One unknown document must not fail its siblings: the fan-out stays
	// 200 and the failure is a per-doc error entry.
	code, body := get(t, ts.URL+"/count?doc=a%2Cnope&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("count doc=a,nope: %d %s", code, body)
	}
	out := decodeMultiCount(t, body)
	if out.Total != 1 || len(out.Docs) != 2 {
		t.Fatalf("body: %s", body)
	}
	if out.Docs[0].Doc != "a" || out.Docs[0].Error != "" || out.Docs[0].Count != 1 {
		t.Fatalf("healthy doc entry: %+v", out.Docs[0])
	}
	if out.Docs[1].Doc != "nope" || out.Docs[1].Error == "" {
		t.Fatalf("unknown doc entry: %+v", out.Docs[1])
	}
	// A single plain name keeps the classic behavior: unknown is 404.
	if code, _ := get(t, ts.URL+"/count?doc=nope&q="+escape("//book")); code != http.StatusNotFound {
		t.Fatalf("single unknown doc: %d, want 404", code)
	}
}

func TestScatterExists(t *testing.T) {
	ts, _ := newMultiServer(t)
	// b0 only occurs in document b.
	code, body := get(t, ts.URL+"/exists?doc=*&q="+escape("//book[contains(., 'b0')]"))
	if code != http.StatusOK {
		t.Fatalf("exists doc=*: %d %s", code, body)
	}
	var out multiExistsBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Any || len(out.Docs) != 3 {
		t.Fatalf("exists body: %s", body)
	}
	for _, d := range out.Docs {
		if want := d.Doc == "b"; d.Exists != want {
			t.Fatalf("exists[%s] = %v: %s", d.Doc, d.Exists, body)
		}
	}
}

func TestScatterQueryStream(t *testing.T) {
	ts, _ := newMultiServer(t)
	code, body := get(t, ts.URL+"/query?doc=*&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("query doc=*: %d %s", code, body)
	}
	// Per-doc frames, in sorted order, each followed by that document's
	// serialized results.
	got := string(body)
	wantOrder := []string{
		"<!-- doc: a -->", "<book>a0</book>",
		"<!-- doc: b -->", "<book>b0</book>", "<book>b1</book>",
		"<!-- doc: c -->", "<book>c0</book>",
	}
	pos := -1
	for _, w := range wantOrder {
		i := strings.Index(got, w)
		if i <= pos {
			t.Fatalf("marker %q out of order (or missing) in:\n%s", w, got)
		}
		pos = i
	}
}

func TestScatterQueryStreamErrorFrame(t *testing.T) {
	ts, _ := newMultiServer(t)
	code, body := get(t, ts.URL+"/query?doc=a%2Cnope&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("query doc=a,nope: %d %s", code, body)
	}
	got := string(body)
	if !strings.Contains(got, "<book>a0</book>") {
		t.Fatalf("healthy doc results missing:\n%s", got)
	}
	if !strings.Contains(got, "<!-- doc: nope error: ") {
		t.Fatalf("error frame missing:\n%s", got)
	}
	// A query that cannot compile anywhere is a clean 400, not a stream of
	// error comments.
	if code, _ := get(t, ts.URL+"/query?doc=*&q="+escape("//book[")); code != http.StatusBadRequest {
		t.Fatalf("bad query doc=*: %d, want 400", code)
	}
}

func TestScatterBatch(t *testing.T) {
	ts, _ := newMultiServer(t)
	body := `{"requests":[
		{"doc":"*","query":"//book"},
		{"doc":"c,a","query":"//book","mode":"exists"}
	]}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []BatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// The first item expands to a,b,c; the second to c,a — five results,
	// each under its concrete document name.
	if len(out.Results) != 5 {
		t.Fatalf("results: %+v", out.Results)
	}
	wantDocs := []string{"a", "b", "c", "c", "a"}
	wantCounts := []int64{1, 2, 3, 1, 1}
	for i, r := range out.Results {
		if r.Doc != wantDocs[i] || r.Count != wantCounts[i] || r.Error != "" {
			t.Fatalf("results[%d] = %+v, want doc %s count %d", i, r, wantDocs[i], wantCounts[i])
		}
	}
	if out.Results[3].Mode != "exists" || !out.Results[3].Exists {
		t.Fatalf("exists item: %+v", out.Results[3])
	}
}
