package mmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// TestOpenReadsFile checks both file images: Open (a mapping where the
// platform has mmap) and ReadFile (always an aligned heap buffer).
func TestOpenReadsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	want := bytes.Repeat([]byte("sxsi-mmap!"), 1000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*File, error){"Open": Open, "ReadFile": ReadFile} {
		f, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data(), want) {
			t.Fatalf("%s: data differs from file content", name)
		}
		if f.Size() != len(want) {
			t.Fatalf("%s: Size=%d want %d", name, f.Size(), len(want))
		}
		if uintptr(unsafe.Pointer(&f.Data()[0]))&7 != 0 {
			t.Fatalf("%s: data base not 8-byte aligned", name)
		}
		if name == "ReadFile" && f.Mapped() {
			t.Fatal("ReadFile claims a mapping")
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 || f.Mapped() {
		t.Fatalf("empty file: size=%d mapped=%v", f.Size(), f.Mapped())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing file: expected error")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("directory: expected error")
	}
	if _, err := ReadFile(dir); err == nil {
		t.Fatal("ReadFile of a directory: expected error")
	}
}
