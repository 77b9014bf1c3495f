// Package mmap provides the two file images the index decoder runs over.
// On Unix platforms Open maps the file read-only with mmap(2), so the index
// pages stay in the OS page cache and are shared across processes serving
// the same files. ReadFile reads the whole file into an 8-byte-aligned
// private buffer instead — the copying load, and Open's fallback on other
// platforms — which keeps the same API (and the same alignment guarantees
// the decoder relies on) at the cost of the copy.
//
// The returned data is read-only: writing through it faults on mapped
// platforms. Close invalidates the data — the caller must guarantee no
// slice aliasing it is used afterwards, which in this codebase means the
// engine loaded from the mapping has been dropped.
package mmap

import (
	"io"
	"os"

	"repro/internal/persist"
)

// File is an open read-only file image.
type File struct {
	data   []byte
	mapped bool // true when backed by a real OS mapping
	closed bool
}

// Data returns the file contents. The slice is read-only and valid until
// Close. Its base address is at least 8-byte aligned (page-aligned when
// mapped), as the aligned container decoders require.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether the data is backed by an OS memory mapping (as
// opposed to the read-everything fallback buffer).
func (f *File) Mapped() bool { return f.mapped }

// Size returns the file image size in bytes.
func (f *File) Size() int { return len(f.data) }

// Open maps (or, on fallback platforms, reads) the file at path.
func Open(path string) (*File, error) {
	return open(path)
}

// ReadFile reads the whole file at path into one 8-byte-aligned heap
// buffer. The decoder aliases payloads out of it exactly as it would out
// of a mapping; only the page sharing with the OS cache is lost. The
// result is never Mapped.
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
	data := persist.AlignedBuffer(int(size))
	if _, err := io.ReadFull(file, data); err != nil {
		return nil, &os.PathError{Op: "read", Path: path, Err: err}
	}
	return &File{data: data}, nil
}

// Close releases the mapping. Any slice aliasing Data becomes invalid.
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
