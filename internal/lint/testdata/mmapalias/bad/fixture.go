// Fixture posing as repro/internal/xpath: neither an unsafe-allowed nor
// a loader package, so every mapped-memory misuse below must be flagged.
package fixture

import (
	_ "unsafe" // want `unsafe is confined to internal/persist and internal/mmap`

	"repro/internal/mmap"
	"repro/internal/persist"
)

type holder struct {
	data []byte
}

func mutate(src *persist.MReader) *holder {
	b := src.Bytes()
	b[0] = 1 // want `write through slice derived from mapped index memory`
	var tmp [4]byte
	copy(b, tmp[:])  // want `copy on a slice derived from mapped index memory`
	_ = append(b, 0) // want `append on a slice derived from mapped index memory`
	h := &holder{}
	h.data = b // want `stored into a struct field outside the loader packages`
	lit := holder{
		data: b, // want `stored into a struct literal outside the loader packages`
	}
	_ = lit
	return h
}

func reslice(src *persist.MReader, f *mmap.File) {
	b := src.Raw(16)
	c := b[2:8]
	c[0] = 9 // want `write through slice derived from mapped index memory`
	d := f.Data()[4:]
	d[0] = 9 // want `write through slice derived from mapped index memory`
}
