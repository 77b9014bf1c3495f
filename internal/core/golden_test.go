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
		{"xmark", gen.XMark(7, 120_000), "811555f1503c3605789c14bf883a3258a86d9e4d44b3155a97e6311fc65f386c"},
		{"medline", gen.Medline(7, 120_000), "514ccdec6e0e85f5c566665c4dce6b5f33d485766801c8469eb5316c503151e4"},
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
