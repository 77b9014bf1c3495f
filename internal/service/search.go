package service

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/collection"
)

// searchBody is the GET /search response: the collection.SearchReport
// (whose k is the effective result size) after an echo of the request.
type searchBody struct {
	Query string `json:"query"`
	XPath string `json:"xpath,omitempty"`
	collection.SearchReport
}

// handleSearch is the ranked full-text endpoint:
//
//	GET /search?q=TERMS[&xpath=EXPR][&k=N]
//
// q is a conjunctive term query ("quoted phrases" match exact substrings
// through the FM-index); xpath optionally restricts the result to
// documents where the expression selects at least one node (evaluated only
// on the term candidates); k caps the ranked hits (default
// collection.DefaultTopK, at most collection.MaxTopK; the response's k is
// the value the search ran with). The response carries the BM25-ranked
// hits with scores, text snippets and — when xpath was given —
// per-document result node counts. Like every evaluating endpoint it runs
// under the admission semaphore and the request's context.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	xpath := r.URL.Query().Get("xpath")
	k := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k parameter %q", ks))
			return
		}
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	rep, err := s.c.Search(r.Context(), q, xpath, k)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, searchBody{Query: q, XPath: xpath, SearchReport: *rep})
}
