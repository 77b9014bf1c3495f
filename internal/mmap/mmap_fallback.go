//go:build !unix

package mmap

// open reads the whole file into an aligned private buffer: without mmap,
// the file image is the copying one.
func open(path string) (*File, error) { return ReadFile(path) }

func (f *File) close() error {
	f.data = nil // the buffer is garbage-collected once unreferenced
	return nil
}
