package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"
)

// clients is the closed-loop client count: the box has two processors, so
// two callers that each wait for their reply keep the server saturated
// without queueing behind one another.
const clients = 2

type opKind uint8

const (
	kindCount    opKind = iota // GET /count?doc=D&q=Q
	kindExists                 // GET /exists?doc=D&q=Q
	kindStream                 // GET /query?doc=D&q=Q, streamed serialization
	kindBatch                  // POST /query, nodes-mode batch
	kindSearch                 // GET /search?q=TERMS[&xpath=X]
	kindCountAll               // GET /count?doc=*&q=Q, scatter-gather
)

// term is one unit of a full-text query as the load generator builds it:
// the oracle scores these, the server parses their rendering.
type term struct {
	text   string
	phrase bool
}

// docQuery is one item of a batch.
type docQuery struct{ doc, query string }

// opSpec is one distinct operation: the request, and — once the oracle has
// run — the answer a correct server must give.
type opSpec struct {
	kind  opKind
	class string // query class, for the per-class latency report
	doc   string
	query string     // XPath (count/exists/stream/countAll, search filter)
	terms []term     // search
	batch []docQuery // batch

	method string
	target string // path and query string
	body   []byte // POST body

	want want
}

// want is the oracle's answer for one operation.
type want struct {
	count   int64            // count
	exists  bool             // exists
	body    []byte           // stream: the exact response bytes
	nodes   [][]int          // batch: node positions per item
	counts  map[string]int64 // countAll: per-document counts
	search  *searchWant      // search
	queries int64            // per-document evaluations the server must account
	digest  [sha256.Size]byte
}

type searchWant struct {
	candidates int
	matched    int
	hits       []searchHit
}

type searchHit struct {
	doc   string
	score float64
	nodes int64
}

func get(path string, kv ...string) string {
	v := url.Values{}
	for i := 0; i < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return path + "?" + v.Encode()
}

func countOp(class, doc, q string) *opSpec {
	return &opSpec{kind: kindCount, class: class, doc: doc, query: q, method: "GET", target: get("/count", "doc", doc, "q", q)}
}

func existsOp(class, doc, q string) *opSpec {
	return &opSpec{kind: kindExists, class: class, doc: doc, query: q, method: "GET", target: get("/exists", "doc", doc, "q", q)}
}

func streamOp(class, doc, q string) *opSpec {
	return &opSpec{kind: kindStream, class: class, doc: doc, query: q, method: "GET", target: get("/query", "doc", doc, "q", q)}
}

func countAllOp(class, q string) *opSpec {
	return &opSpec{kind: kindCountAll, class: class, query: q, method: "GET", target: get("/count", "doc", "*", "q", q)}
}

func batchOp(class string, items []docQuery) *opSpec {
	type item struct {
		Doc   string `json:"doc"`
		Query string `json:"query"`
		Mode  string `json:"mode"`
	}
	reqs := make([]item, len(items))
	for i, it := range items {
		reqs[i] = item{it.doc, it.query, "nodes"}
	}
	body, err := json.Marshal(map[string]any{"requests": reqs})
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return &opSpec{kind: kindBatch, class: class, batch: items, method: "POST", target: "/query", body: body}
}

// renderTerms writes the terms the way a user would type them.
func renderTerms(terms []term) string {
	var b bytes.Buffer
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		if t.phrase {
			b.WriteString(`"` + t.text + `"`)
		} else {
			b.WriteString(t.text)
		}
	}
	return b.String()
}

func searchOp(class string, terms []term, xpath string) *opSpec {
	kv := []string{"q", renderTerms(terms)}
	if xpath != "" {
		kv = append(kv, "xpath", xpath)
	}
	return &opSpec{kind: kindSearch, class: class, terms: terms, query: xpath, method: "GET", target: get("/search", kv...)}
}

// client is one connection's worth of load generator: it sends a request,
// reads the whole reply and checks it against the oracle.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(s *served) *client { return &client{http: s.http, base: s.srv.URL} }

// do sends op and returns the response body (valid until the next call).
// It checks the transport and the status, not the answer.
func (c *client) do(op *opSpec) ([]byte, error) {
	var rd io.Reader
	if op.body != nil {
		rd = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, c.base+op.target, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return c.buf.Bytes(), fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

// timed is do with the latency a caller sees: from just before the request
// is sent until the last byte of the reply has been read.
func (c *client) timed(op *opSpec) ([]byte, time.Duration, error) {
	t0 := time.Now()
	body, err := c.do(op)
	return body, time.Since(t0), err
}

// scoreTolerance is how far a served BM25 score may sit from the oracle's.
const scoreTolerance = 1e-9

// verify compares a 200 response body with the oracle's answer.
func verify(op *opSpec, body []byte) error {
	w := &op.want
	switch op.kind {
	case kindCount:
		var r struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Count != w.count {
			return fmt.Errorf("count %d, oracle %d", r.Count, w.count)
		}
	case kindExists:
		var r struct {
			Exists bool `json:"exists"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Exists != w.exists {
			return fmt.Errorf("exists %v, oracle %v", r.Exists, w.exists)
		}
	case kindStream:
		if !bytes.Equal(body, w.body) {
			return fmt.Errorf("serialization differs: %d bytes, oracle %d bytes", len(body), len(w.body))
		}
	case kindBatch:
		var r struct {
			Results []struct {
				Count int64  `json:"count"`
				Nodes []int  `json:"nodes"`
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != len(w.nodes) {
			return fmt.Errorf("%d batch results, oracle %d", len(r.Results), len(w.nodes))
		}
		for i, res := range r.Results {
			if res.Error != "" {
				return fmt.Errorf("item %d: %s", i, res.Error)
			}
			if res.Count != int64(len(w.nodes[i])) || !equalInts(res.Nodes, w.nodes[i]) {
				return fmt.Errorf("item %d: %d nodes differ from the oracle's %d", i, len(res.Nodes), len(w.nodes[i]))
			}
		}
	case kindCountAll:
		var r struct {
			Total int64 `json:"total"`
			Docs  []struct {
				Doc   string `json:"doc"`
				Count int64  `json:"count"`
				Error string `json:"error"`
			} `json:"docs"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Docs) != len(w.counts) {
			return fmt.Errorf("%d documents answered, oracle %d", len(r.Docs), len(w.counts))
		}
		var total int64
		for _, d := range r.Docs {
			if c, ok := w.counts[d.Doc]; !ok || d.Error != "" || c != d.Count {
				return fmt.Errorf("doc %s: count %d error %q, oracle %d", d.Doc, d.Count, d.Error, c)
			}
			total += d.Count
		}
		if r.Total != total {
			return fmt.Errorf("total %d, sum of documents %d", r.Total, total)
		}
	case kindSearch:
		var r struct {
			Candidates int `json:"candidates"`
			Matched    int `json:"matched"`
			Hits       []struct {
				Doc   string  `json:"doc"`
				Score float64 `json:"score"`
				Nodes int64   `json:"nodes"`
			} `json:"hits"`
			Failed map[string]string `json:"failed"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		s := w.search
		if len(r.Failed) != 0 {
			return fmt.Errorf("filter failed on %d documents", len(r.Failed))
		}
		if r.Candidates != s.candidates || r.Matched != s.matched || len(r.Hits) != len(s.hits) {
			return fmt.Errorf("candidates/matched/hits %d/%d/%d, oracle %d/%d/%d",
				r.Candidates, r.Matched, len(r.Hits), s.candidates, s.matched, len(s.hits))
		}
		for i, h := range r.Hits {
			o := s.hits[i]
			if h.Doc != o.doc || h.Nodes != o.nodes || math.Abs(h.Score-o.score) > scoreTolerance {
				return fmt.Errorf("hit %d: %s %.12g (%d nodes), oracle %s %.12g (%d nodes)",
					i, h.Doc, h.Score, h.Nodes, o.doc, o.score, o.nodes)
			}
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
