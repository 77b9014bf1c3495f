package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// A cancelled save must abort through the atomic-write error path: the
// output file is never created and no .sxsi.tmp is orphaned in the
// directory — the exact failure mode of interrupting `sxsi build`.
func TestSaveFileCtxCancelledLeavesNoTemp(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(doc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.sxsi")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SaveFileCtx(ctx, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after cancelled save: %v", names)
	}
}

// An uncancelled context must not change the write path: the saved file
// round-trips and the temp file is gone.
func TestSaveFileCtxSuccess(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(doc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.sxsi")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := e.SaveFileCtx(ctx, path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if n, err := got.Count(context.Background(), "//b"); err != nil || n != 3 {
		t.Fatalf("reloaded count: n=%d err=%v", n, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("expected only the index file, got %d entries", len(ents))
	}
}

// The parallel build configuration on Config must produce an engine whose
// saved bytes match the default build.
func TestBuildContextConfigEquivalence(t *testing.T) {
	serial, err := BuildContext(context.Background(), []byte(doc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildContext(context.Background(), []byte(doc), Config{
		BuildProcs: 4, MemoryBudget: 1 << 20, BuildTempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := saveToBytes(t, serial)
	b := saveToBytes(t, par)
	if string(a) != string(b) {
		t.Fatal("parallel-configured build differs from the default build")
	}
}

func saveToBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.sxsi")
	if _, err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
