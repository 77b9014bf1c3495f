package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

const persistDoc = `<inventory><item sku="a1"><name>bolt</name><qty>12</qty></item>` +
	`<item sku="b2"><name>nut</name><qty>7</qty></item></inventory>`

func TestEngineSaveLoadFile(t *testing.T) {
	e, err := BuildContext(context.Background(), []byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	n, err := e.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != n {
		t.Fatalf("size=%v n=%d err=%v", st, n, err)
	}
	got, err := OpenFile(path, Config{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//item", "//item[@sku = 'a1']/name", "//qty"} {
		a, err1 := e.Count(context.Background(), q)
		b, err2 := got.Count(context.Background(), q)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("%s: %d/%v vs %d/%v", q, a, err1, b, err2)
		}
	}
	var s1, s2 bytes.Buffer
	if _, err := e.Serialize(context.Background(), "//item", &s1); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Serialize(context.Background(), "//item", &s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("serialization differs after file round-trip")
	}
}

func TestIsIndexData(t *testing.T) {
	e, _ := BuildContext(context.Background(), []byte(persistDoc), Config{})
	var buf bytes.Buffer
	if _, err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !IsIndexData(buf.Bytes()) {
		t.Fatal("saved index not recognized")
	}
	if IsIndexData([]byte(persistDoc)) || IsIndexData(nil) || IsIndexData([]byte("SX")) {
		t.Fatal("false positive")
	}
}

func TestLoadTruncated(t *testing.T) {
	e, _ := BuildContext(context.Background(), []byte(persistDoc), Config{})
	var buf bytes.Buffer
	if _, err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut]), Config{}); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "absent.sxsi"), Config{NoMmap: true}); err == nil {
		t.Fatal("missing file: expected error")
	}
}
