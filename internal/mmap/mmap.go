// Package mmap provides the file images the index decoder runs over.
// On Unix platforms Open maps the file read-only with mmap(2), so the index
// pages stay in the OS page cache and are shared across processes serving
// the same files. ReadFile and ReadAll copy the index into a private image
// instead — the copying loads, and Open's fallback on other platforms —
// which keeps the same API (and the same alignment guarantees the decoder
// relies on) at the cost of the copy. On Linux and macOS that private image
// is an anonymous mapping made read-only once it is filled; elsewhere it
// is an 8-byte-aligned heap buffer.
//
// The returned data is read-only: writing through it faults on every Unix
// image, mapped or copied, except on the platforms whose syscall package
// has no mprotect. Close invalidates the data — the caller must guarantee
// no slice aliasing it is used afterwards, which in this codebase means
// the engine loaded from the image has been dropped.
package mmap

import (
	"bytes"
	"io"
	"os"
)

// File is an open read-only file image.
type File struct {
	data   []byte
	mapped bool // true when backed by a file mapping shared with the page cache
	unmap  bool // true when data is an OS mapping that Close must release
	closed bool
}

// Data returns the file contents. The slice is read-only and valid until
// Close. Its base address is at least 8-byte aligned (page-aligned when
// mapped), as the aligned container decoders require.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether the data is backed by a file mapping shared with
// the OS page cache (as opposed to a private copy of the file).
func (f *File) Mapped() bool { return f.mapped }

// Size returns the file image size in bytes.
func (f *File) Size() int { return len(f.data) }

// Open maps (or, on fallback platforms, reads) the file at path.
func Open(path string) (*File, error) {
	return open(path)
}

// ReadFile reads the whole file at path into one private image. The
// decoder aliases payloads out of it exactly as it would out of a mapping;
// only the page sharing with the OS cache is lost. The result is never
// Mapped.
func ReadFile(path string) (*File, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	size, err := statSize(file)
	if err != nil {
		return nil, err
	}
	if size != int64(int(size)) {
		return nil, &os.PathError{Op: "read", Path: path, Err: os.ErrInvalid}
	}
	f, err := readImage(file, int(size))
	if err != nil {
		return nil, &os.PathError{Op: "read", Path: path, Err: err}
	}
	return f, nil
}

// ReadAll reads r to the end into one private image, like ReadFile. The
// image is sized up front when r reports what is left to read
// (bytes.Reader, bytes.Buffer) and copied once from a growing buffer
// otherwise.
func ReadAll(r io.Reader) (*File, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		return readImage(r, lr.Len())
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return readImage(bytes.NewReader(data), len(data))
}

// Close releases the image. Any slice aliasing Data becomes invalid.
// Close is idempotent.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.close()
}

// stat sizes the file and rejects non-regular files, shared by both
// implementations.
func statSize(file *os.File) (int64, error) {
	st, err := file.Stat()
	if err != nil {
		return 0, err
	}
	if !st.Mode().IsRegular() {
		return 0, &os.PathError{Op: "mmap", Path: file.Name(), Err: os.ErrInvalid}
	}
	return st.Size(), nil
}
