package collection

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// libXML builds a document with n <book> children.
func libXML(n int) []byte {
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < n; i++ {
		b.WriteString("<book>x</book>")
	}
	b.WriteString("</lib>")
	return []byte(b.String())
}

// saveIndex builds an index for a document with n books and writes it to
// path (atomically, via SaveFile's temp-file + rename).
func saveIndex(t *testing.T, path string, n int) {
	t.Helper()
	eng, err := core.BuildContext(context.Background(), libXML(n), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func countBooks(t *testing.T, c *Collection, doc string) int64 {
	t.Helper()
	res := c.DoContext(context.Background(), Request{Doc: doc, Query: "//book", Mode: ModeCount})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Count
}

func TestReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.sxsi")
	saveIndex(t, path, 2)

	c := New(Config{})
	if err := c.Open("lib", path); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Get("lib")
	if n := countBooks(t, c, "lib"); n != 2 {
		t.Fatalf("initial count = %d, want 2", n)
	}

	// Nothing changed: the pass is a no-op.
	rep := c.Reload(context.Background())
	if len(rep.Reloaded) != 0 || len(rep.Removed) != 0 || rep.Unchanged != 1 || len(rep.Failed) != 0 {
		t.Fatalf("no-op reload report: %+v", rep)
	}
	if eng, _ := c.Get("lib"); eng != old {
		t.Fatal("no-op reload replaced the engine")
	}

	// The file changed (different size and mtime): the document is
	// re-opened and the registry pointer flips.
	saveIndex(t, path, 3)
	// Belt and braces for coarse filesystem clocks: force a distinct mtime.
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	rep = c.Reload(context.Background())
	if len(rep.Reloaded) != 1 || rep.Reloaded[0] != "lib" {
		t.Fatalf("reload report after change: %+v", rep)
	}
	if eng, _ := c.Get("lib"); eng == old {
		t.Fatal("changed file did not swap the engine")
	}
	if n := countBooks(t, c, "lib"); n != 3 {
		t.Fatalf("count after reload = %d, want 3", n)
	}
	if c.Stats().Reloads != 2 {
		t.Fatalf("Stats.Reloads = %d, want 2", c.Stats().Reloads)
	}
}

func TestReloadFailureKeepsOldEngine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.sxsi")
	saveIndex(t, path, 2)
	c := New(Config{})
	if err := c.Open("lib", path); err != nil {
		t.Fatal(err)
	}
	// Replace the index with a truncated one — the index magic followed by
	// garbage; the reload must fail and the old engine keep serving. The
	// replacement is an atomic rename, not an in-place write: the old
	// inode stays mapped under the old engine (in-place mutation of a
	// mapped index is out of contract — SaveFile renames for this reason).
	bad := filepath.Join(dir, "bad.tmp")
	if err := os.WriteFile(bad, []byte("SXSIGO garbage, not a real index"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(bad, path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	rep := c.Reload(context.Background())
	if len(rep.Failed) != 1 || rep.Failed["lib"] == "" {
		t.Fatalf("reload report: %+v", rep)
	}
	if n := countBooks(t, c, "lib"); n != 2 {
		t.Fatalf("count after failed reload = %d, want the old index's 2", n)
	}
	// The recorded stat was not updated, so fixing the file is caught by
	// the next pass.
	saveIndex(t, path, 4)
	if err := os.Chtimes(path, time.Time{}, time.Now().Add(4*time.Second)); err != nil {
		t.Fatal(err)
	}
	rep = c.Reload(context.Background())
	if len(rep.Reloaded) != 1 {
		t.Fatalf("reload report after fix: %+v", rep)
	}
	if n := countBooks(t, c, "lib"); n != 4 {
		t.Fatalf("count after fixed reload = %d, want 4", n)
	}
}

func TestReloadRemovesVanishedDocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.sxsi")
	saveIndex(t, path, 2)
	c := New(Config{})
	if err := c.Open("lib", path); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rep := c.Reload(context.Background())
	if len(rep.Removed) != 1 || rep.Removed[0] != "lib" {
		t.Fatalf("reload report: %+v", rep)
	}
	if _, ok := c.Get("lib"); ok {
		t.Fatal("vanished document still registered")
	}
}

func TestReloadIgnoresManuallyAddedDocs(t *testing.T) {
	eng, err := core.BuildContext(context.Background(), libXML(1), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	c.Add("mem", eng)
	rep := c.Reload(context.Background())
	if len(rep.Reloaded)+len(rep.Removed)+rep.Unchanged+len(rep.Failed) != 0 {
		t.Fatalf("reload touched a manually added doc: %+v", rep)
	}
	// Replacing a file-backed doc through Add drops its file binding too.
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.sxsi")
	saveIndex(t, path, 2)
	if err := c.Open("lib", path); err != nil {
		t.Fatal(err)
	}
	c.Add("lib", eng)
	rep = c.Reload(context.Background())
	if rep.Unchanged != 0 {
		t.Fatalf("Add did not drop the file binding: %+v", rep)
	}
}

// TestCanceledCounter pins the accounting split: a canceled evaluation
// lands in Stats.Canceled, a deadline expiry in Stats.Errors.
func TestCanceledCounter(t *testing.T) {
	eng, err := core.BuildContext(context.Background(), libXML(2), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	c.Add("lib", eng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := c.DoContext(ctx, Request{Doc: "lib", Query: "//book", Mode: ModeCount})
	if res.Err == nil {
		t.Fatal("canceled request succeeded")
	}
	if st := c.Stats(); st.Canceled != 1 || st.Errors != 0 {
		t.Fatalf("after cancel: %+v, want Canceled=1 Errors=0", st)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	res = c.DoContext(dctx, Request{Doc: "lib", Query: "//book", Mode: ModeCount})
	if res.Err == nil {
		t.Fatal("expired request succeeded")
	}
	if st := c.Stats(); st.Canceled != 1 || st.Errors != 1 {
		t.Fatalf("after deadline: %+v, want Canceled=1 Errors=1", st)
	}
}
