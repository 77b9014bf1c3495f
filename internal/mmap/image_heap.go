//go:build !linux && !darwin

package mmap

import (
	"io"

	"repro/internal/persist"
)

// readImage reads size bytes of r into one 8-byte-aligned heap buffer: the
// copying image where the syscall package offers no mprotect. It stays
// writable.
func readImage(r io.Reader, size int) (*File, error) {
	data := persist.AlignedBuffer(size)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return &File{data: data}, nil
}
