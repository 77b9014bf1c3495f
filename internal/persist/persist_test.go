package persist

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// encode runs fn over a fresh Writer and returns the flushed stream in an
// aligned buffer, ready for an MReader.
func encode(t *testing.T, fn func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	fn(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if pw.Count() != int64(buf.Len()) {
		t.Fatalf("Count=%d len=%d", pw.Count(), buf.Len())
	}
	return EnsureAligned(buf.Bytes())
}

func TestPrimitivesRoundTrip(t *testing.T) {
	data := encode(t, func(pw *Writer) {
		pw.Uint64(42)
		pw.Uint32(7)
		pw.Byte(0xAB)
		pw.Int(123456)
		pw.Int32(-5)
		pw.Bytes([]byte("hello"))
		pw.Bytes(nil)
		pw.String("wörld")
		pw.Words([]uint64{1, 1 << 63, 0})
		pw.Int32s([]int32{-1, 0, 1 << 30})
	})

	mr := NewMReader(data)
	if v := mr.Uint64(); v != 42 {
		t.Fatalf("Uint64=%d", v)
	}
	if v := mr.Uint32(); v != 7 {
		t.Fatalf("Uint32=%d", v)
	}
	if v := mr.Byte(); v != 0xAB {
		t.Fatalf("Byte=%x", v)
	}
	if v := mr.Int(); v != 123456 {
		t.Fatalf("Int=%d", v)
	}
	if v := mr.Int32(); v != -5 {
		t.Fatalf("Int32=%d", v)
	}
	if b := mr.Bytes(); string(b) != "hello" {
		t.Fatalf("Bytes=%q", b)
	}
	if b := mr.Bytes(); len(b) != 0 {
		t.Fatalf("empty Bytes=%q", b)
	}
	if s := mr.String(); s != "wörld" {
		t.Fatalf("String=%q", s)
	}
	if w := mr.Words(); len(w) != 3 || w[1] != 1<<63 {
		t.Fatalf("Words=%v", w)
	}
	if xs := mr.Int32s(); len(xs) != 3 || xs[0] != -1 || xs[2] != 1<<30 {
		t.Fatalf("Int32s=%v", xs)
	}
	if mr.Err() != nil {
		t.Fatal(mr.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	data := encode(t, func(pw *Writer) { pw.Bytes(make([]byte, 1000)) })
	// Every proper prefix must produce ErrCorrupt, never a panic.
	for cut := 0; cut < len(data); cut += 7 {
		mr := NewMReader(data[:cut])
		mr.Bytes()
		if !errors.Is(mr.Err(), ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, mr.Err())
		}
	}
}

// TestReaderImplausibleLength: an absurd length prefix fails typed on every
// length-prefixed slice reader, before it can size an allocation.
func TestReaderImplausibleLength(t *testing.T) {
	data := encode(t, func(pw *Writer) { pw.Uint64(1 << 62) })
	for name, read := range map[string]func(*MReader) bool{
		"Words":  func(mr *MReader) bool { return mr.Words() == nil },
		"Int32s": func(mr *MReader) bool { return mr.Int32s() == nil },
		"String": func(mr *MReader) bool { return mr.String() == "" },
		"Raw":    func(mr *MReader) bool { return mr.Raw(1<<40) == nil },
	} {
		mr := NewMReader(data)
		if !read(mr) || !errors.Is(mr.Err(), ErrCorrupt) {
			t.Fatalf("%s: err=%v", name, mr.Err())
		}
	}
	mr := NewMReader(data)
	if mr.Raw(-1) != nil || !errors.Is(mr.Err(), ErrCorrupt) {
		t.Fatalf("negative Raw: err=%v", mr.Err())
	}
}

func TestReaderErrorSticks(t *testing.T) {
	mr := NewMReader(nil)
	mr.Uint64()
	first := mr.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	mr.Int32s()
	if mr.Check(false, "later failure") != first || mr.Err() != first {
		t.Fatal("error did not stick")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.String("one") })
	fw.Section(9, func(pw *Writer) { pw.Int(99) })
	fw.Section(2, func(pw *Writer) { pw.Words([]uint64{5, 6}) })
	n, err := fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Close reported %d bytes, wrote %d", n, buf.Len())
	}

	mf, err := OpenMappedContainer(EnsureAligned(buf.Bytes()), "MAGIC!")
	if err != nil {
		t.Fatal(err)
	}
	if mf.Version() != 3 {
		t.Fatalf("version=%d", mf.Version())
	}
	id, mr, err := mf.Next()
	if err != nil || id != 1 || mr.String() != "one" {
		t.Fatalf("section 1: id=%d err=%v", id, err)
	}
	// Section 9 is "unknown": skip it without reading the payload.
	id, _, err = mf.Next()
	if err != nil || id != 9 {
		t.Fatalf("section 9: id=%d err=%v", id, err)
	}
	id, mr, err = mf.Next()
	if err != nil || id != 2 {
		t.Fatalf("section 2: id=%d err=%v", id, err)
	}
	if w := mr.Words(); len(w) != 2 || w[0] != 5 {
		t.Fatalf("section 2 payload: %v", w)
	}
	id, _, err = mf.Next()
	if err != nil || id != 0 {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
}

// TestContainerBadHeader: a wrong or truncated magic fails typed; the
// version is reported as written, for the format owner to judge.
func TestContainerBadHeader(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 2)
	fw.Section(1, func(pw *Writer) { pw.Int(1) })
	fw.Close()
	data := EnsureAligned(buf.Bytes())

	if _, err := OpenMappedContainer([]byte("WRONG!...."), "MAGIC!"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := OpenMappedContainer(data[:3], "MAGIC!"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated magic: %v", err)
	}
	if _, err := OpenMappedContainer(data[:7], "MAGIC!"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated version: %v", err)
	}
	mf, err := OpenMappedContainer(data, "MAGIC!")
	if err != nil || mf.Version() != 2 {
		t.Fatalf("version: %v %v", mf, err)
	}
}

func TestContainerTruncatedSection(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 1)
	fw.Section(1, func(pw *Writer) { pw.Bytes(make([]byte, 500)) })
	fw.Section(2, func(pw *Writer) { pw.Int(2) })
	fw.Close()
	data := buf.Bytes()
	// Every proper prefix of the stream must surface ErrCorrupt somewhere —
	// at the header, at a section header, or inside a payload read.
	for cut := 0; cut < len(data); cut++ {
		mf, err := OpenMappedContainer(EnsureAligned(data[:cut]), "MAGIC!")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d header err=%v", cut, err)
			}
			continue
		}
		detected := false
		for {
			id, mr, err := mf.Next()
			if err != nil {
				detected = errors.Is(err, ErrCorrupt)
				break
			}
			if id == 0 {
				break
			}
			mr.Bytes() // drive a payload read into the cut
			if mr.Err() != nil {
				detected = true
				break
			}
		}
		if !detected {
			t.Fatalf("cut=%d: truncation not detected", cut)
		}
	}
}

// limitedWriter fails after n bytes, exercising the write-error path.
type limitedWriter struct{ n int }

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	k := min(len(p), lw.n)
	lw.n -= k
	if k < len(p) {
		return k, io.ErrClosedPipe
	}
	return k, nil
}

func TestWriterErrorSticks(t *testing.T) {
	pw := NewWriter(&limitedWriter{n: 4})
	pw.Words(make([]uint64, 1<<16))
	if err := pw.Flush(); err == nil {
		t.Fatal("expected write error")
	}
	if pw.Err() == nil {
		t.Fatal("Err not sticky")
	}
}
