package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"unsafe"
)

// writeAligned serializes one of every primitive, returning the stream.
func writeAligned(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Byte(0xAB)
	pw.Words([]uint64{1, 1 << 63, 0})
	pw.Uint32(7)
	pw.Int32s([]int32{-1, 0, 1 << 30})
	pw.Int(123456)
	pw.Bytes([]byte("hello"))
	pw.String("wörld")
	pw.Words(nil)
	pw.Raw([]byte{9, 8, 7})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkAlignedStream(t *testing.T, mr *MReader) {
	t.Helper()
	if v := mr.Byte(); v != 0xAB {
		t.Fatalf("Byte=%x", v)
	}
	if w := mr.Words(); len(w) != 3 || w[1] != 1<<63 {
		t.Fatalf("Words=%v", w)
	}
	if v := mr.Uint32(); v != 7 {
		t.Fatalf("Uint32=%d", v)
	}
	if xs := mr.Int32s(); len(xs) != 3 || xs[0] != -1 || xs[2] != 1<<30 {
		t.Fatalf("Int32s=%v", xs)
	}
	if v := mr.Int(); v != 123456 {
		t.Fatalf("Int=%d", v)
	}
	if b := mr.Bytes(); string(b) != "hello" {
		t.Fatalf("Bytes=%q", b)
	}
	if s := mr.String(); s != "wörld" {
		t.Fatalf("String=%q", s)
	}
	if w := mr.Words(); len(w) != 0 {
		t.Fatalf("empty Words=%v", w)
	}
	if b := mr.Raw(3); !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Fatalf("Raw=%v", b)
	}
	if mr.Err() != nil {
		t.Fatal(mr.Err())
	}
}

// TestAlignedStreamBothReaders decodes one stream through both decode
// modes of the MReader: aliasing (aligned buffer) and copying (a buffer
// whose base is off by one byte).
func TestAlignedStreamBothReaders(t *testing.T) {
	data := writeAligned(t)
	checkAlignedStream(t, NewMReader(EnsureAligned(data)))

	backing := make([]byte, len(data)+8)
	off := 1
	if uintptr(unsafe.Pointer(&backing[0]))&7 == 7 {
		off = 2
	}
	copy(backing[off:], data)
	copying := NewMReader(backing[off : off+len(data)])
	if copying.Aliasing() {
		t.Fatal("unaligned base reported as aliasing")
	}
	checkAlignedStream(t, copying)
}

// TestMReaderAliases proves the zero-copy property: the slices returned by
// an aliasing MReader share memory with the buffer.
func TestMReaderAliases(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Words([]uint64{11, 22})
	pw.Int32s([]int32{33, 44})
	pw.Bytes([]byte("payload"))
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := EnsureAligned(buf.Bytes())
	mr := NewMReader(data)
	if !mr.Aliasing() {
		t.Skip("host cannot alias (big-endian)")
	}
	ws := mr.Words()
	xs := mr.Int32s()
	bs := mr.Bytes()
	if mr.Err() != nil {
		t.Fatal(mr.Err())
	}
	inBuf := func(p unsafe.Pointer) bool {
		base := uintptr(unsafe.Pointer(&data[0]))
		return uintptr(p) >= base && uintptr(p) < base+uintptr(len(data))
	}
	if !inBuf(unsafe.Pointer(&ws[0])) || !inBuf(unsafe.Pointer(&xs[0])) || !inBuf(unsafe.Pointer(&bs[0])) {
		t.Fatal("payload slices do not alias the buffer")
	}
	if ws[0] != 11 || ws[1] != 22 || xs[0] != 33 || xs[1] != 44 || string(bs) != "payload" {
		t.Fatalf("aliased values wrong: %v %v %q", ws, xs, bs)
	}
}

// TestMReaderUnalignedBaseCopies: a buffer with a misaligned base must
// still decode correctly (by copying).
func TestMReaderUnalignedBaseCopies(t *testing.T) {
	data := writeAligned(t)
	backing := make([]byte, len(data)+1)
	copy(backing[1:], data)
	mr := NewMReader(backing[1:])
	if mr.Aliasing() {
		t.Skip("allocator produced an aligned odd slice; nothing to test")
	}
	checkAlignedStream(t, mr)
}

// TestMReaderTruncation: every proper prefix fails with ErrCorrupt and
// never panics or over-reads.
func TestMReaderTruncation(t *testing.T) {
	data := writeAligned(t)
	for cut := 0; cut < len(data); cut++ {
		mr := NewMReader(EnsureAligned(data[:cut]))
		mr.Byte()
		mr.Words()
		mr.Uint32()
		mr.Int32s()
		mr.Int()
		mr.Bytes()
		_ = mr.String()
		mr.Words()
		mr.Raw(3)
		if !errors.Is(mr.Err(), ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, mr.Err())
		}
	}
}

// TestMReaderImplausibleLength: a length beyond the cap is corruption, not
// an allocation request.
func TestMReaderImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Uint64(1 << 62)
	pw.Flush()
	mr := NewMReader(EnsureAligned(buf.Bytes()))
	if b := mr.Bytes(); b != nil || !errors.Is(mr.Err(), ErrCorrupt) {
		t.Fatalf("b=%v err=%v", b, mr.Err())
	}
}

// TestAlignedContainerRoundTrip writes a container and walks it with
// OpenMappedContainer, checking that section payloads and their word
// arrays land on 8-byte offsets and alias the buffer.
func TestAlignedContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.String("one") })
	fw.Section(9, func(pw *Writer) { pw.Int(99) })
	fw.Section(2, func(pw *Writer) { pw.Byte(1); pw.Words([]uint64{5, 6}) })
	n, err := fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	data := EnsureAligned(buf.Bytes())
	if n != int64(len(data)) || n%8 != 4 {
		t.Fatalf("Close reported %d bytes, wrote %d (end marker must follow padding)", n, len(data))
	}

	mf, err := OpenMappedContainer(data, "MAGIC!")
	if err != nil {
		t.Fatal(err)
	}
	id, mr, err := mf.Next()
	if err != nil || id != 1 || mr.String() != "one" {
		t.Fatalf("section 1: id=%d err=%v", id, err)
	}
	id, _, err = mf.Next() // skip the unknown section by length
	if err != nil || id != 9 {
		t.Fatalf("section 9: id=%d err=%v", id, err)
	}
	id, mr, err = mf.Next()
	if err != nil || id != 2 || mr.Byte() != 1 {
		t.Fatalf("section 2: id=%d err=%v", id, err)
	}
	w := mr.Words()
	if len(w) != 2 || w[0] != 5 || w[1] != 6 {
		t.Fatalf("section 2 payload: %v", w)
	}
	if off := uintptr(unsafe.Pointer(&w[0])) - uintptr(unsafe.Pointer(&data[0])); mr.Aliasing() && (off >= uintptr(len(data)) || off%8 != 0) {
		t.Fatalf("word payload at file offset %d: not aliased on an 8-byte boundary", off)
	}
	if id, _, err = mf.Next(); err != nil || id != 0 {
		t.Fatalf("end: id=%d err=%v", id, err)
	}
}

// TestOpenMappedContainerRejects: wrong magic, an implausible section
// length, and every truncation.
func TestOpenMappedContainerRejects(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFileWriter(&buf, "MAGIC!", 3)
	fw.Section(1, func(pw *Writer) { pw.Words(make([]uint64, 64)) })
	fw.Close()
	data := EnsureAligned(buf.Bytes())

	if _, err := OpenMappedContainer([]byte("WRONG!aa"), "MAGIC!"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	huge := EnsureAligned(append([]byte(nil), data...))
	binary.LittleEndian.PutUint64(huge[16:], 1<<62) // section 1's length field
	mf, err := OpenMappedContainer(huge, "MAGIC!")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mf.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible section length: %v", err)
	}

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
			mr.Words()
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

// TestWriterPadsWordPayloads pins the stream layout: scalars are never
// padded, and every Words/Int32s length prefix starts on an 8-byte offset.
func TestWriterPadsWordPayloads(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Byte(1)
	pw.Words([]uint64{2})
	pw.Int32s([]int32{3})
	pw.Byte(4)
	pw.Flush()
	want := []byte{
		1, 0, 0, 0, 0, 0, 0, 0, // byte + pad to 8
		1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // len + word
		1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, // already aligned: len + int32
		4, // no padding after a scalar
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream\n%v\nwant\n%v", buf.Bytes(), want)
	}
}

func TestEnsureAligned(t *testing.T) {
	if EnsureAligned(nil) != nil {
		t.Fatal("nil should stay nil")
	}
	backing := make([]byte, 17)
	for i := range backing {
		backing[i] = byte(i)
	}
	got := EnsureAligned(backing[1:])
	if uintptr(unsafe.Pointer(&got[0]))&7 != 0 {
		t.Fatal("result not aligned")
	}
	if !bytes.Equal(got, backing[1:]) {
		t.Fatal("copy differs")
	}
}
