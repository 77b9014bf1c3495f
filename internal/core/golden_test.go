package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
)

// TestSaveGoldenDigest pins the on-disk format to the byte: the SHA-256 of
// Save on two fixed generated corpora. A change to the persist Writer, the
// container framing or any structure's Store shows up here first; a
// deliberate format change must update the digests in the same commit.
func TestSaveGoldenDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		xml  []byte
		want string
	}{
		{"xmark", gen.XMark(7, 120_000), "babba17672f07faf5cccc592d3ce3a7d85fcdb1abe51d0dd3618ad03c29265d8"},
		{"medline", gen.Medline(7, 120_000), "42fb8cf78835831ec53bfa606381e49c96df461115155e28634ae31c3ee05cec"},
	} {
		e, err := BuildContext(context.Background(), c.xml, Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		if _, err := e.Save(h); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: Save digest %s, want %s", c.name, got, c.want)
		}
	}
}
