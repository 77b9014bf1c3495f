package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
)

// newSearchServer serves a corpus big enough to make ranking meaningful:
// five documents with graded term frequencies.
func newSearchServer(t *testing.T) (*httptest.Server, *collection.Collection) {
	t.Helper()
	c := collection.New(collection.Config{Workers: 4})
	for i := 1; i <= 5; i++ {
		xml := fmt.Sprintf(`<doc><title>doc %d</title><body>%s%s</body></doc>`,
			i,
			strings.Repeat("gold ", i),
			strings.Repeat("filler word padding ", 6-i))
		eng, err := core.Build([]byte(xml), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(fmt.Sprintf("d%d", i), eng)
	}
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)
	return ts, c
}

type searchResp struct {
	Query      string                 `json:"query"`
	XPath      string                 `json:"xpath"`
	K          int                    `json:"k"`
	Terms      []string               `json:"terms"`
	Candidates int                    `json:"candidates"`
	Matched    int                    `json:"matched"`
	Hits       []collection.SearchHit `json:"hits"`
	Failed     map[string]string      `json:"failed"`
}

func doSearch(t *testing.T, base string, params url.Values) (int, searchResp, []byte) {
	t.Helper()
	code, body := get(t, base+"/search?"+params.Encode())
	var out searchResp
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad search body %s: %v", body, err)
		}
	}
	return code, out, body
}

func TestSearchEndpoint(t *testing.T) {
	ts, _ := newSearchServer(t)
	code, out, body := doSearch(t, ts.URL, url.Values{"q": {"gold"}})
	if code != http.StatusOK {
		t.Fatalf("search: %d %s", code, body)
	}
	if out.Candidates != 5 || out.Matched != 5 || out.K != collection.DefaultTopK {
		t.Fatalf("search body: %s", body)
	}
	if len(out.Hits) != 5 {
		t.Fatalf("hits: %s", body)
	}
	// d5 repeats "gold" five times in the shortest body: it must rank first,
	// and scores must be non-increasing down the list.
	if out.Hits[0].Doc != "d5" {
		t.Fatalf("top hit: %s", body)
	}
	for i := 1; i < len(out.Hits); i++ {
		if out.Hits[i].Score > out.Hits[i-1].Score {
			t.Fatalf("scores not sorted: %s", body)
		}
	}
	if !strings.Contains(out.Hits[0].Snippet, "gold") {
		t.Fatalf("snippet: %s", body)
	}
	if out.Terms[0] != "gold" {
		t.Fatalf("terms echo: %s", body)
	}
}

func TestSearchEndpointTopKAndXPath(t *testing.T) {
	ts, _ := newSearchServer(t)
	code, out, body := doSearch(t, ts.URL, url.Values{
		"q": {"gold"}, "k": {"2"}, "xpath": {`//title[contains(., "doc")]`},
	})
	if code != http.StatusOK {
		t.Fatalf("search: %d %s", code, body)
	}
	if out.Matched != 5 || len(out.Hits) != 2 || out.K != 2 {
		t.Fatalf("k=2 body: %s", body)
	}
	for _, h := range out.Hits {
		if h.Nodes != 1 {
			t.Fatalf("nodes: %s", body)
		}
	}
	// A selective filter narrows the matches.
	code, out, body = doSearch(t, ts.URL, url.Values{
		"q": {"gold"}, "xpath": {`//title[contains(., "doc 3")]`},
	})
	if code != http.StatusOK || out.Matched != 1 || out.Hits[0].Doc != "d3" {
		t.Fatalf("selective filter: %d %s", code, body)
	}
}

// TestSearchEndpointEchoesEffectiveK pins the k of the response to the
// value the search ran with, not the one the request carried.
func TestSearchEndpointEchoesEffectiveK(t *testing.T) {
	ts, _ := newSearchServer(t)
	for _, tc := range []struct {
		k    string
		want int
	}{
		{"", collection.DefaultTopK},
		{"3", 3},
		{"1000", collection.MaxTopK},
		{"5000", collection.MaxTopK},
	} {
		params := url.Values{"q": {"gold"}}
		if tc.k != "" {
			params.Set("k", tc.k)
		}
		code, out, body := doSearch(t, ts.URL, params)
		if code != http.StatusOK || out.K != tc.want {
			t.Errorf("k=%q: status %d, echoed k %d, want %d: %s", tc.k, code, out.K, tc.want, body)
		}
		if want := min(tc.want, 5); len(out.Hits) != want {
			t.Errorf("k=%q: %d hits, want %d", tc.k, len(out.Hits), want)
		}
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	ts, _ := newSearchServer(t)
	for _, tc := range []struct {
		params url.Values
		want   int
	}{
		{url.Values{}, http.StatusBadRequest},                          // missing q
		{url.Values{"q": {`"unterminated`}}, http.StatusBadRequest},    // bad query
		{url.Values{"q": {"gold"}, "k": {"x"}}, http.StatusBadRequest}, // bad k
		{url.Values{"q": {"gold"}, "k": {"-1"}}, http.StatusBadRequest},
	} {
		if code, _, body := doSearch(t, ts.URL, tc.params); code != tc.want {
			t.Fatalf("params %v: %d %s, want %d", tc.params, code, body, tc.want)
		}
	}
}

func TestSearchEndpointDisabled(t *testing.T) {
	c := collection.New(collection.Config{DisableSearch: true})
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)
	code, _, body := doSearch(t, ts.URL, url.Values{"q": {"gold"}})
	if code != http.StatusNotImplemented {
		t.Fatalf("disabled search: %d %s", code, body)
	}
}

// TestSearchMetrics pins the sxsi_search_* exposition series.
func TestSearchMetrics(t *testing.T) {
	ts, _ := newSearchServer(t)
	// Scraping must not build postings: none exist before the first search.
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body), "\nsxsi_postings_docs 0\n") ||
		!strings.Contains(string(body), "\nsxsi_postings_bytes 0\n") {
		t.Fatalf("postings gauges before the first search:\n%s", body)
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(string(body), `"postings_docs":0,"postings_bytes":0`) {
		t.Fatalf("/stats before the first search: %s", body)
	}
	if code, _, _ := doSearch(t, ts.URL, url.Values{"q": {"gold"}}); code != http.StatusOK {
		t.Fatal("warm-up search failed")
	}
	if code, _, _ := doSearch(t, ts.URL, url.Values{"q": {`"x`}}); code != http.StatusBadRequest {
		t.Fatal("warm-up bad search not 400")
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE sxsi_search_total counter",
		"sxsi_search_total 2",
		"sxsi_search_errors_total 1",
		"# TYPE sxsi_search_duration_seconds histogram",
		`sxsi_search_duration_seconds_bucket{le="+Inf"} 2`,
		"sxsi_search_duration_seconds_count 2",
		"sxsi_search_duration_seconds_sum ",
		"# TYPE sxsi_postings_docs gauge",
		"\nsxsi_postings_docs 5\n",
		"# TYPE sxsi_postings_bytes gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "\nsxsi_postings_bytes 0\n") {
		t.Fatalf("postings bytes still 0 after a search:\n%s", body)
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(string(body), `"postings_docs":5,`) {
		t.Fatalf("/stats after a search: %s", body)
	}
}
