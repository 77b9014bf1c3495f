package persist

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// nativeIsLittle reports whether the host is little-endian. Payload aliasing
// reinterprets on-disk little-endian words as host integers, so on a
// big-endian host MReader transparently falls back to copying decodes.
var nativeIsLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MReader deserializes primitives written by Writer out of an in-memory
// buffer — an mmap'd index file or the whole file read into one aligned
// heap buffer. Words, Int32s, Bytes and Raw return slices that alias the
// buffer instead of copying it, so loading a structure through an MReader
// costs O(derived directories), not O(index size), and on a mapping the
// pages behind the payloads stay shared with the OS page cache.
//
// Aliasing []uint64 and []int32 requires the element start to sit on its
// natural boundary in memory. The aligned layout guarantees the right
// in-buffer offsets; the buffer itself must start 8-byte aligned (mmap
// regions are page-aligned; heap buffers must come from AlignedBuffer).
// When the buffer start is unaligned, or the host is big-endian, MReader
// silently decodes by copying instead — callers still get correct data,
// just not zero-copy.
//
// The returned slices share memory with the buffer: they are read-only and
// valid only while the backing buffer (and any mapping behind it) stays
// alive and unchanged. The first error sticks and subsequent reads return
// zero values; check Err once after the last read, or rely on the
// validation the caller performs on the decoded values.
type MReader struct {
	data     []byte
	off      int
	canAlias bool
	err      error
}

// NewMReader returns an MReader over data.
func NewMReader(data []byte) *MReader {
	mr := &MReader{data: data}
	mr.canAlias = nativeIsLittle &&
		(len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))&7 == 0)
	return mr
}

// Aliasing reports whether payload slices alias the buffer (as opposed to
// the copying fallback for unaligned buffers or big-endian hosts).
func (mr *MReader) Aliasing() bool { return mr.canAlias }

func (mr *MReader) fail(what string) {
	if mr.err == nil {
		mr.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
}

// need reserves n more bytes, failing with a corruption error on overrun.
func (mr *MReader) need(n int) bool {
	if mr.err != nil {
		return false
	}
	if n < 0 || n > len(mr.data)-mr.off {
		mr.fail("unexpected end of input")
		return false
	}
	return true
}

// align8 skips the padding emitted before a word-sized payload.
func (mr *MReader) align8() {
	if pad := -mr.off & 7; pad > 0 && mr.need(pad) {
		mr.off += pad
	}
}

// Byte reads a single byte.
func (mr *MReader) Byte() byte {
	if !mr.need(1) {
		return 0
	}
	b := mr.data[mr.off]
	mr.off++
	return b
}

// Uint32 reads a fixed 4-byte little-endian value.
func (mr *MReader) Uint32() uint32 {
	if !mr.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(mr.data[mr.off:])
	mr.off += 4
	return v
}

// Uint64 reads a fixed 8-byte little-endian value.
func (mr *MReader) Uint64() uint64 {
	if !mr.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(mr.data[mr.off:])
	mr.off += 8
	return v
}

// Int reads a non-negative int, rejecting implausible values.
func (mr *MReader) Int() int {
	v := mr.Uint64()
	if v > maxLen {
		mr.fail(fmt.Sprintf("implausible length %d", v))
		return 0
	}
	return int(v)
}

// Int32 reads an int32.
func (mr *MReader) Int32() int32 { return int32(mr.Uint32()) }

// Len reads an element count that sizes an allocation or a loop over the
// records that follow. The count is bounded before it escapes: it must be
// at most max, and n records of at least esize bytes each must fit in the
// unread rest of the payload. So a corrupt count can never size an
// allocation larger than the section that claims to hold it. A count that
// breaks either bound sets the sticky corruption error and reads as 0.
func (mr *MReader) Len(esize, max int) int {
	n := mr.Int()
	if mr.err == nil && (n > max || n > (len(mr.data)-mr.off)/esize) {
		mr.fail(fmt.Sprintf("implausible count %d", n))
	}
	if mr.err != nil {
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice aliasing the buffer.
func (mr *MReader) Bytes() []byte { return mr.Raw(mr.Len(1, maxLen)) }

// String reads a length-prefixed string. Strings are copied — string
// immutability must not depend on the mapping.
func (mr *MReader) String() string { return string(mr.Bytes()) }

// Raw returns exactly n unprefixed bytes aliasing the buffer (the
// counterpart of Writer.Raw).
func (mr *MReader) Raw(n int) []byte {
	if mr.err == nil && (n < 0 || n > maxLen) {
		mr.fail(fmt.Sprintf("implausible raw length %d", n))
	}
	if n == 0 || !mr.need(n) {
		return nil
	}
	b := mr.data[mr.off : mr.off+n : mr.off+n]
	mr.off += n
	return b
}

// Words reads a length-prefixed []uint64 aliasing the buffer (zero-copy on
// aligned little-endian buffers, copied otherwise).
func (mr *MReader) Words() []uint64 {
	mr.align8()
	n := mr.Len(8, maxLen)
	if mr.err != nil {
		return nil
	}
	if n == 0 {
		return []uint64{}
	}
	if mr.canAlias {
		ws := unsafe.Slice((*uint64)(unsafe.Pointer(&mr.data[mr.off])), n)
		mr.off += 8 * n
		return ws
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(mr.data[mr.off+8*i:])
	}
	mr.off += 8 * n
	return ws
}

// Int32s reads a length-prefixed []int32 aliasing the buffer.
func (mr *MReader) Int32s() []int32 {
	mr.align8()
	n := mr.Len(4, maxLen)
	if mr.err != nil {
		return nil
	}
	if n == 0 {
		return []int32{}
	}
	if mr.canAlias {
		xs := unsafe.Slice((*int32)(unsafe.Pointer(&mr.data[mr.off])), n)
		mr.off += 4 * n
		return xs
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(mr.data[mr.off+4*i:]))
	}
	mr.off += 4 * n
	return xs
}

// Err returns the first read error.
func (mr *MReader) Err() error { return mr.err }

// Check returns cond ? nil : a corruption error with the given context.
// Loaders use it to turn validation failures into uniform errors.
func (mr *MReader) Check(cond bool, what string) error {
	if mr.err != nil {
		return mr.err
	}
	if !cond {
		mr.fail(what)
	}
	return mr.err
}

// AlignedBuffer returns an 8-byte-aligned byte slice of length n: the heap
// buffer a whole index file is read into when it is not memory-mapped.
func AlignedBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// EnsureAligned returns data if its base is 8-byte aligned, or an aligned
// private copy otherwise, so odd callers (tests, fuzzing) keep zero-copy
// decoding.
func EnsureAligned(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))&7 == 0 {
		return data
	}
	cp := AlignedBuffer(len(data))
	copy(cp, data)
	return cp
}

// Chunked runs fn over the index ranges of [0, n), split across the CPUs.
// Loaders use it for validation and slicing passes over decoded payloads,
// which are random-access and fully bounds-checked up front, so they
// parallelize trivially. fn must treat its range as exclusive property;
// Chunked waits for all chunks.
func Chunked(n int, fn func(lo, hi int)) {
	const minChunk = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || n < 2*minChunk {
		fn(0, n)
		return
	}
	if workers > n/minChunk {
		workers = n / minChunk
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// --- Container walker ---

// MappedFile walks the sections of a container held in memory. Sections
// decode through MReaders, so payloads alias the buffer.
type MappedFile struct {
	data    []byte
	pos     int
	version uint16
}

// OpenMappedContainer checks the magic of the container in data and
// positions a section walker at the first section. The format version is
// reported by Version; which versions are readable is the caller's
// decision, made before any section is decoded.
func OpenMappedContainer(data []byte, magic string) (*MappedFile, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	mf := &MappedFile{data: data, pos: len(magic) + 2}
	mf.version = binary.LittleEndian.Uint16(data[len(magic):])
	mf.pos += -mf.pos & 7 // header padding
	return mf, nil
}

// Version returns the container's format version.
func (mf *MappedFile) Version() uint16 { return mf.version }

// Next returns the next section's id and an MReader over its payload, or
// id 0 at the end marker.
func (mf *MappedFile) Next() (uint32, *MReader, error) {
	mf.pos += -mf.pos & 7
	if mf.pos+4 > len(mf.data) {
		return 0, nil, fmt.Errorf("%w: missing section header", ErrCorrupt)
	}
	id := binary.LittleEndian.Uint32(mf.data[mf.pos:])
	mf.pos += 4
	if id == 0 {
		return 0, nil, nil
	}
	if mf.pos+12 > len(mf.data) {
		return 0, nil, fmt.Errorf("%w: missing section header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint64(mf.data[mf.pos+4:])
	mf.pos += 12
	if length > maxLen || length > uint64(len(mf.data)-mf.pos) {
		return 0, nil, fmt.Errorf("%w: truncated section", ErrCorrupt)
	}
	payload := mf.data[mf.pos : mf.pos+int(length) : mf.pos+int(length)]
	mf.pos += int(length)
	return id, NewMReader(payload), nil
}
