// Package persist provides the shared binary primitives of the on-disk
// index format: a little-endian Writer for the scalar and slice types the
// succinct structures are made of, a bounds-checked MReader that decodes
// them back out of a byte buffer, and a sectioned container format with a
// magic number, a format version and an explicit byte length per section,
// so that layout changes are detected (version mismatch) or skipped
// (unknown section) rather than silently misread. Every structure in the
// index stack (bitvec, bp, wavelet, tags, fmindex, xmltree) builds its
// Store/Read pair on these primitives.
//
// There is one layout and one read path. The layout is aligned: Words and
// Int32s pad the stream to an 8-byte boundary before their length prefix,
// and the container gives every section an 8-byte-aligned payload start,
// so the MReader (mreader.go) can alias word and int32 payloads in place
// instead of copying them. The buffer behind it is an image from package
// mmap: the mapped file, or for the copying loads a private copy, which is
// read-only as well on Linux and macOS. Either way a write through a
// decoded payload faults, and the decoder is the same.
//
// All corruption and truncation conditions surface as errors wrapping
// ErrCorrupt; no input may cause a panic or an unbounded allocation.
// Loaders keep that contract by construction: every count that sizes an
// allocation or a loop comes from MReader.Len, and every failure from
// MReader.Check or MReader.Err. persisttest.Sweep checks it for each
// loader at every byte offset.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
)

// ErrCorrupt reports corrupted, truncated or incompatible serialized data.
var ErrCorrupt = errors.New("persist: corrupt or truncated data")

// maxLen caps any single length field (bytes or elements). Lengths beyond
// it are treated as corruption rather than allocation requests.
const maxLen = 1 << 38

// --- Writer ---

// Writer serializes primitives to an underlying stream. The first write
// error sticks; check Err (or Flush) once at the end instead of after every
// call.
//
// The word-sized slice primitives pad the stream to an 8-byte boundary
// before their length prefix, so that a reader over a buffer whose start is
// 8-byte aligned can alias the payloads in place. Alignment is relative to
// the Writer's own first byte; enclosing formats must place that first byte
// on an 8-byte file offset (the container does).
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

var zeroPad [8]byte

// NewWriter returns a buffered Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (pw *Writer) write(b []byte) {
	if pw.err != nil {
		return
	}
	n, err := pw.w.Write(b)
	pw.n += int64(n)
	pw.err = err
}

// align8 pads the stream with zero bytes to the next 8-byte boundary
// relative to the Writer's first byte.
func (pw *Writer) align8() {
	if pad := int(-pw.n & 7); pad > 0 {
		pw.write(zeroPad[:pad])
	}
}

// Uint64 writes a fixed 8-byte little-endian value.
func (pw *Writer) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	pw.write(b[:])
}

// Uint32 writes a fixed 4-byte little-endian value.
func (pw *Writer) Uint32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	pw.write(b[:])
}

// Byte writes a single byte.
func (pw *Writer) Byte(v byte) { pw.write([]byte{v}) }

// Int writes a non-negative int as a Uint64.
func (pw *Writer) Int(v int) { pw.Uint64(uint64(v)) }

// Int32 writes an int32 as a Uint32.
func (pw *Writer) Int32(v int32) { pw.Uint32(uint32(v)) }

// Bytes writes a length-prefixed byte slice.
func (pw *Writer) Bytes(b []byte) {
	pw.Int(len(b))
	pw.write(b)
}

// Raw writes b with no length prefix; the caller's format must make the
// length recoverable.
func (pw *Writer) Raw(b []byte) { pw.write(b) }

// String writes a length-prefixed string.
func (pw *Writer) String(s string) {
	pw.Int(len(s))
	if pw.err == nil {
		var n int
		n, pw.err = pw.w.WriteString(s)
		pw.n += int64(n)
	}
}

// Words writes a length-prefixed []uint64. The length prefix is padded
// onto an 8-byte boundary, which puts the payload on one too.
func (pw *Writer) Words(ws []uint64) {
	pw.align8()
	pw.Int(len(ws))
	var b [8]byte
	for _, x := range ws {
		binary.LittleEndian.PutUint64(b[:], x)
		pw.write(b[:])
	}
}

// Int32s writes a length-prefixed []int32, aligned like Words.
func (pw *Writer) Int32s(xs []int32) {
	pw.align8()
	pw.Int(len(xs))
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		pw.write(b[:])
	}
}

// Count returns the number of bytes handed to the underlying writer so far
// (excluding data still buffered; call Flush first for an exact total).
func (pw *Writer) Count() int64 { return pw.n }

// Err returns the first write error.
func (pw *Writer) Err() error { return pw.err }

// Flush drains the buffer and returns the first error encountered.
func (pw *Writer) Flush() error {
	if pw.err != nil {
		return pw.err
	}
	pw.err = pw.w.Flush()
	return pw.err
}

// --- Sectioned container ---

// The container layout keeps every section payload on an 8-byte file
// offset so the MReader can alias word payloads in place:
//
//	magic   [len(magic)]byte
//	version uint16
//	pad     to an 8-byte offset
//	section*:
//	    pad      to an 8-byte offset
//	    id       uint32  (nonzero)
//	    reserved uint32  (zero)
//	    length   uint64  (payload bytes)
//	    payload  [length]byte        (starts 8-byte aligned)
//	end     pad to an 8-byte offset, then uint32(0)
//
// Readers iterate sections by id (MappedFile), skipping unknown ones by
// their length; an unexpected magic is reported before any payload is
// interpreted, and the caller checks the version the same way.

// FileWriter writes a sectioned container. Each section is buffered to
// learn its length before being written out, so Save's transient memory
// peaks at roughly the largest single section (the text blob for the
// index container). A seekable-writer backpatching fast path can remove
// that if it ever matters.
type FileWriter struct {
	w   io.Writer
	n   int64
	err error
	buf bytes.Buffer
}

// NewFileWriter writes the header (magic + version) and returns the writer.
func NewFileWriter(w io.Writer, magic string, version uint16) *FileWriter {
	fw := &FileWriter{w: w}
	fw.writeAll([]byte(magic))
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], version)
	fw.writeAll(v[:])
	fw.pad8()
	return fw
}

func (fw *FileWriter) writeAll(b []byte) {
	if fw.err != nil {
		return
	}
	n, err := fw.w.Write(b)
	fw.n += int64(n)
	fw.err = err
}

// pad8 advances to the next 8-byte file offset.
func (fw *FileWriter) pad8() {
	if pad := int(-fw.n & 7); pad > 0 {
		fw.writeAll(zeroPad[:pad])
	}
}

// Section writes one section: fn serializes the payload into a Writer, and
// the section header (id, byte length) is emitted before the payload.
func (fw *FileWriter) Section(id uint32, fn func(*Writer)) {
	if fw.err != nil {
		return
	}
	fw.buf.Reset()
	pw := NewWriter(&fw.buf)
	fn(pw)
	if err := pw.Flush(); err != nil {
		fw.err = err
		return
	}
	fw.pad8()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], id)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(fw.buf.Len()))
	fw.writeAll(hdr[:])
	fw.writeAll(fw.buf.Bytes())
}

// Close writes the end marker and returns the total bytes written.
func (fw *FileWriter) Close() (int64, error) {
	fw.pad8()
	var end [4]byte
	fw.writeAll(end[:])
	return fw.n, fw.err
}
