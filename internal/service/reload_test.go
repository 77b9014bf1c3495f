package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
)

func saveLibIndex(t *testing.T, path string, books int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&sb, "<book>v%d</book>", i)
	}
	sb.WriteString("</lib>")
	eng, err := core.BuildContext(context.Background(), []byte(sb.String()), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// SaveFile writes a temp file and renames it into place, so the old
	// inode — possibly still mapped under the serving engine — is never
	// mutated.
	if _, err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestReloadEndpointUnderLoad is the hot-swap race test: clients hammer
// /count while the index file behind the document is rewritten and
// POST /reload swaps it in, repeatedly. Every in-flight query must finish
// cleanly on whichever engine it started on — zero failed requests — and
// every response must show one of the two valid counts. Run under -race in
// CI, this also pins the swap's memory-model soundness.
func TestReloadEndpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.sxsi")
	saveLibIndex(t, path, 2)

	c := collection.New(collection.Config{Workers: 4})
	if err := c.Open("lib", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)

	var failures atomic.Int64
	var firstFailure atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/count?doc=lib&q=" + escape("//book"))
				if err != nil {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("transport: %v", err))
					continue
				}
				var out countBody
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("status %d, decode %v", resp.StatusCode, err))
					continue
				}
				if out.Count != 2 && out.Count != 3 {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("count %d", out.Count))
				}
			}
		}()
	}

	// Swap between the 2-book and 3-book index several times under load.
	for i := 0; i < 6; i++ {
		saveLibIndex(t, path, 2+(i+1)%2)
		// Distinct mtimes even on coarse filesystem clocks (sizes differ
		// between the two versions anyway; this is belt and braces).
		if err := os.Chtimes(path, time.Time{}, time.Now().Add(time.Duration(i+1)*time.Second)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep collection.ReloadReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(rep.Reloaded) != 1 || rep.Reloaded[0] != "lib" {
			t.Fatalf("reload %d: status %d report %+v", i, resp.StatusCode, rep)
		}
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot swaps; first: %v", n, firstFailure.Load())
	}
	// The last swap wins: 6 iterations end on the 2-book version.
	code, body := get(t, ts.URL+"/count?doc=lib&q="+escape("//book"))
	var out countBody
	if err := json.Unmarshal(body, &out); err != nil || code != http.StatusOK {
		t.Fatalf("final count: %d %s", code, body)
	}
	if out.Count != 2 {
		t.Fatalf("final count = %d, want the last-written index's 2", out.Count)
	}
	if st := c.Stats(); st.Reloads != 6 {
		t.Fatalf("Stats.Reloads = %d, want 6", st.Reloads)
	}
}
