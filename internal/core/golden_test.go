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
		{"xmark", gen.XMark(7, 120_000), "52036103d0768906e09b4e81f3b46dbc2cef9de2ca3230a7b4b8ef0bf951f6a7"},
		{"medline", gen.Medline(7, 120_000), "d6e7604f6e7c5ed54d191024e7d7b5b47377c769cd818250beef50ce1b9fcd93"},
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
