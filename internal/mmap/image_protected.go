//go:build linux || darwin

package mmap

import (
	"io"
	"syscall"
)

// readImage reads size bytes of r into an anonymous private mapping and
// then makes it read-only, so a write through the copying image faults
// exactly as one through a file mapping does.
func readImage(r io.Reader, size int) (*File, error) {
	if size == 0 {
		return &File{}, nil
	}
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	if _, err = io.ReadFull(r, data); err == nil {
		err = syscall.Mprotect(data, syscall.PROT_READ)
	}
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	return &File{data: data, unmap: true}, nil
}
