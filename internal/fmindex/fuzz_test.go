package fmindex

import (
	"bytes"
	"context"
	"testing"
)

// fuzzTexts cuts data into texts at its 0 bytes; a final empty piece is
// dropped, so "" is no text, "\x00" one empty text and "ab" one text "ab".
func fuzzTexts(data []byte) [][]byte {
	texts := bytes.Split(data, []byte{0})
	if len(texts[len(texts)-1]) == 0 {
		texts = texts[:len(texts)-1]
	}
	return texts
}

// FuzzLocateRow checks the row and position maps against a naive suffix
// order. The input's 0 bytes cut data into texts (empty ones among them)
// and rate picks a sample rate in 1..16, so that texts longer than the
// rate end their LF walks at samples and shorter ones at their starts.
// LocateRow must name the text and offset of every row's suffix, PosToText
// those of every position of T, and Extract every text.
func FuzzLocateRow(f *testing.F) {
	for _, s := range []struct {
		data string
		rate byte // sample rate - 1
	}{
		{"", 3},                 // no texts
		{"\x00", 3},             // one empty text
		{"\x00\x00\x00\x00", 2}, // all texts empty
		{"abracadabraabra", 4},  // one text of 3·rate bytes
		{"ab\x00\x00abcabcabcab\x00c", 2},
		{"mississippi\x00miss\x00\x00issi", 15},
		{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\x00a\x00aa", 6},
		{"\xff\x80\x01\x00\x01\x01\x00\xff", 0},
	} {
		f.Add([]byte(s.data), s.rate)
	}
	f.Fuzz(func(t *testing.T, data []byte, rate byte) {
		if len(data) > 1024 {
			return
		}
		texts, l := fuzzTexts(data), 1+int(rate)%16
		x, err := NewCtx(context.Background(), texts, Options{SampleRate: l})
		if err != nil {
			t.Fatal(err)
		}
		// textOf[p] and offOf[p] name the text and offset of position p of
		// T; a terminator sits at its text's length.
		var textOf, offOf []int
		for id, tx := range texts {
			for off := 0; off <= len(tx); off++ {
				textOf, offOf = append(textOf, id), append(offOf, off)
			}
		}
		if x.Size() != len(textOf) {
			t.Fatalf("Size() = %d, want %d", x.Size(), len(textOf))
		}
		for p := range textOf {
			if id, off := x.PosToText(p); id != textOf[p] || off != offOf[p] {
				t.Fatalf("PosToText(%d) = (%d, %d), want (%d, %d)", p, id, off, textOf[p], offOf[p])
			}
		}
		_, sa := naiveSuffixOrder(texts)
		for r, p := range sa {
			want := Occurrence{Text: textOf[p], Offset: offOf[p]}
			if got := x.LocateRow(r); got != want {
				t.Fatalf("rate %d: LocateRow(%d) = %+v, want %+v (position %d)", l, r, got, want, p)
			}
		}
		for id, tx := range texts {
			if got := x.Extract(id); !bytes.Equal(got, tx) {
				t.Fatalf("Extract(%d) = %q, want %q", id, got, tx)
			}
		}
	})
}
