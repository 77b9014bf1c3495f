// Package persisttest holds the helpers shared by the persistence tests of
// the index structures: Store into an 8-aligned buffer, Read back through
// an MReader (the path a section of an index file takes on every load),
// and Sweep, the corruption contract every loader is held to.
package persisttest

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/persist"
)

// Bytes serializes s with its Store method into a fresh 8-aligned buffer.
func Bytes(tb testing.TB, s interface{ Store(*persist.Writer) }) []byte {
	tb.Helper()
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	s.Store(pw)
	if err := pw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return persist.EnsureAligned(buf.Bytes())
}

// Read decodes data with read over an MReader and returns the reader's
// sticky error, if any, instead of the value.
func Read[T any](data []byte, read func(*persist.MReader) *T) (*T, error) {
	mr := persist.NewMReader(data)
	v := read(mr)
	if err := mr.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// Flip returns an aligned copy of data with byte i inverted.
func Flip(data []byte, i int) []byte {
	mut := persist.AlignedBuffer(len(data))
	copy(mut, data)
	mut[i] ^= 0xFF
	return mut
}

// MaxAlloc is the most a load of a damaged payload may allocate, given
// that the clean payload's load allocates clean bytes. Over the sweeps of
// the index loaders the worst damaged load allocates 1.05× its clean load,
// and one measurement carries a few KiB of runtime noise; the factor and
// the slack leave room for both, while a count that escapes its bound
// allocates far more.
func MaxAlloc(clean uint64) uint64 { return 2*clean + 64<<10 }

// Alloc runs load and returns the heap bytes it allocated and its error.
// A panic in load comes back as an error that wraps nothing, so a caller
// checking for persist.ErrCorrupt reports it.
func Alloc(load func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return load()
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// Sweep holds a loader to the corruption contract over every damaged
// variant of the valid payload data. load decodes its argument and returns
// the decode error. The clean payload must load. Every truncation must
// fail with persist.ErrCorrupt, and every single-byte flip must either load
// or fail with it. No variant may panic or allocate more than MaxAlloc of
// the clean load's bytes.
func Sweep(tb testing.TB, data []byte, load func([]byte) error) {
	tb.Helper()
	clean, err := Alloc(func() error { return load(data) })
	if err != nil {
		tb.Fatalf("clean payload: %v", err)
	}
	limit := MaxAlloc(clean)
	check := func(what string, mut []byte, mustFail bool) {
		tb.Helper()
		alloc, err := Alloc(func() error { return load(mut) })
		if (err != nil || mustFail) && !errors.Is(err, persist.ErrCorrupt) {
			tb.Fatalf("%s: want nil or %v, got %v", what, persist.ErrCorrupt, err)
		}
		if alloc > limit {
			tb.Fatalf("%s: load allocated %d bytes, limit %d (clean load %d)", what, alloc, limit, clean)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		check(fmt.Sprintf("cut at %d", cut), data[:cut], true)
	}
	for i := range data {
		check(fmt.Sprintf("flip at %d", i), Flip(data, i), false)
	}
}
