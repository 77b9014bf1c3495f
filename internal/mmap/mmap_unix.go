//go:build unix

package mmap

import (
	"os"
	"syscall"
)

// open maps the file read-only. The file descriptor is closed before
// returning — the mapping keeps the pages reachable on its own.
func open(path string) (*File, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	size, err := statSize(file)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return &File{}, nil
	}
	if size != int64(int(size)) {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: syscall.EFBIG}
	}
	data, err := syscall.Mmap(int(file.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return &File{data: data, mapped: true, unmap: true}, nil
}

func (f *File) close() error {
	data := f.data
	f.data = nil
	if !f.unmap || data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
