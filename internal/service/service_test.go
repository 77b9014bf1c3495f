package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/gen"
)

const testXML = `<lib><book id="1"><title>gold rush</title></book>` +
	`<book id="2"><title>silver age</title></book><note>gold note</note></lib>`

func newTestServer(t *testing.T) (*httptest.Server, *collection.Collection) {
	t.Helper()
	c := collection.New(collection.Config{Workers: 4})
	eng, err := core.BuildContext(context.Background(), []byte(testXML), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Add("lib", eng)
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)
	return ts, c
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestDocs(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/docs")
	if code != http.StatusOK {
		t.Fatalf("docs: %d %s", code, body)
	}
	var out struct {
		Docs []struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
		} `json:"docs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || out.Docs[0].Name != "lib" || out.Docs[0].Nodes == 0 {
		t.Fatalf("docs body: %s", body)
	}
}

func TestCount(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/count?doc=lib&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("count: %d %s", code, body)
	}
	var out struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 {
		t.Fatalf("count = %d", out.Count)
	}
}

func TestErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	if code, _ := get(t, ts.URL+"/count?doc=nope&q="+escape("//x")); code != http.StatusNotFound {
		t.Fatalf("unknown doc: %d", code)
	}
	if code, _ := get(t, ts.URL+"/count?doc=lib&q="+escape("//book[")); code != http.StatusBadRequest {
		t.Fatalf("parse error: %d", code)
	}
	if code, _ := get(t, ts.URL+"/count?doc=lib"); code != http.StatusBadRequest {
		t.Fatalf("missing q: %d", code)
	}
	if code, _ := get(t, ts.URL+"/stats?doc=nope"); code != http.StatusNotFound {
		t.Fatalf("stats unknown doc: %d", code)
	}
}

func TestBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"requests":[
		{"doc":"lib","query":"//book"},
		{"doc":"lib","query":"//title","mode":"nodes"},
		{"doc":"lib","query":"//note","mode":"serialize"},
		{"doc":"nope","query":"//x"}
	]}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []struct {
			Mode   string `json:"mode"`
			Count  int64  `json:"count"`
			Nodes  []int  `json:"nodes"`
			Output string `json:"output"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("results: %s", raw)
	}
	if r := out.Results[0]; r.Mode != "count" || r.Count != 2 || r.Error != "" {
		t.Fatalf("batch count: %+v", r)
	}
	if r := out.Results[1]; r.Mode != "nodes" || len(r.Nodes) != 2 {
		t.Fatalf("batch nodes: %+v", r)
	}
	if r := out.Results[2]; r.Output != "<note>gold note</note>\n" {
		t.Fatalf("batch serialize: %+v", r)
	}
	if r := out.Results[3]; r.Error == "" {
		t.Fatalf("batch unknown doc: %+v", r)
	}
}

func TestStats(t *testing.T) {
	ts, _ := newTestServer(t)
	get(t, ts.URL+"/count?doc=lib&q="+escape("//book"))
	code, body := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var out struct {
		Collection collection.Stats `json:"collection"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Collection.Docs != 1 || out.Collection.Queries == 0 {
		t.Fatalf("stats body: %s", body)
	}
	code, body = get(t, ts.URL+"/stats?doc=lib")
	if code != http.StatusOK || !strings.Contains(string(body), `"nodes"`) {
		t.Fatalf("doc stats: %d %s", code, body)
	}
}

// TestCLIByteIdentical pins the acceptance criterion: on the same saved
// index, GET /query returns exactly the bytes `sxsi query` prints, and
// /count agrees with `sxsi count`. The CLI path is core.Load + Serialize /
// Count on the saved file, reproduced here in-process.
func TestCLIByteIdentical(t *testing.T) {
	dir := t.TempDir()
	xml := gen.XMark(7, 64<<10)
	eng, err := core.BuildContext(context.Background(), xml, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "xmark.sxsi")
	if _, err := eng.SaveFile(idxPath); err != nil {
		t.Fatal(err)
	}

	c := collection.New(collection.Config{})
	if err := c.Open("xmark", idxPath); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(c))
	defer ts.Close()

	loaded, err := core.OpenFile(idxPath, core.Config{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//listitem//keyword",
		"//item[.//keyword]/name",
		"//person[address]//emailaddress",
		"//keyword[contains(., 'gold')]",
		// Backward axes flow through the same load → compile → serialize
		// pipeline, so the server must stay byte-identical to the CLI.
		"//keyword/ancestor::listitem",
		"//emph/..",
		"//name[preceding-sibling::location]",
	}
	for _, q := range queries {
		var cli bytes.Buffer
		if _, err := loaded.Serialize(context.Background(), q, &cli); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		code, body := get(t, ts.URL+"/query?doc=xmark&q="+escape(q))
		if code != http.StatusOK {
			t.Fatalf("%s: http %d", q, code)
		}
		if !bytes.Equal(body, cli.Bytes()) {
			t.Fatalf("%s: server output differs from CLI (%d vs %d bytes)", q, len(body), cli.Len())
		}

		n, err := loaded.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		code, cbody := get(t, ts.URL+"/count?doc=xmark&q="+escape(q))
		if code != http.StatusOK {
			t.Fatalf("%s: count http %d", q, code)
		}
		var out struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(cbody, &out); err != nil {
			t.Fatal(err)
		}
		// The CLI prints the count as a decimal line; compare that rendering.
		if fmt.Sprintf("%d\n", out.Count) != fmt.Sprintf("%d\n", n) {
			t.Fatalf("%s: server count %d != CLI count %d", q, out.Count, n)
		}
	}
}

func TestRunLoadsAndServes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doc.xml"), []byte(testXML), 0o666); err != nil {
		t.Fatal(err)
	}
	// Run blocks on ListenAndServe; exercise its loading path through the
	// collection it would serve instead of binding a port here.
	c := collection.New(collection.Config{})
	names, err := c.LoadDir(t.Context(), dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("LoadDir: %v %v", names, err)
	}
}

func escape(q string) string {
	r := strings.NewReplacer(" ", "%20", "[", "%5B", "]", "%5D", "'", "%27", ",", "%2C", "/", "%2F", "(", "%28", ")", "%29", ".", "%2E")
	return r.Replace(q)
}
