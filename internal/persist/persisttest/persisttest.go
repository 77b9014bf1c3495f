// Package persisttest holds the round-trip helpers shared by the
// persistence tests of the index structures: Store into an 8-aligned
// buffer, then Read back through an MReader — the path a section of an
// index file takes on every load.
package persisttest

import (
	"bytes"
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
