package xmltree

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/bp"
	"repro/internal/fmindex"
	"repro/internal/persist"
	"repro/internal/tags"
)

// Index persistence (Section 6.2, Figure 8). The on-disk format is a
// persist container — magic number, format version, and one length-framed
// section per component — holding each structure's own serialization:
//
//	names      the label table
//	tree       balanced parentheses (package bp)
//	tags       the tag sequence (package tags)
//	leaves     the text-leaf bitmap and text count
//	texts      the plain text store (always present: it is the document);
//	           its end offsets are also the FM-index's text boundaries
//	fm         the FM-index (package fmindex), if built
//	tagtables  one PureText byte per label, the planner's per-tag fact
//
// Loading never re-runs suffix sorting — the dominant construction cost —
// and only rebuilds linear-time directories (rank structures, tag rows),
// which is why loading a saved index is an order of magnitude faster than
// indexing (the Figure 8 gap). Unknown
// sections are skipped by their recorded length, and any version other
// than the current one is reported as an error before any payload is
// interpreted, so layout changes are detected rather than silently
// misread.

// Magic and version of the index container. The magic is shared with the
// CLI's format sniffing; the version is bumped on any layout change.
// Version 3 introduced the aligned layout: section payloads and their
// word/int32 arrays sit on 8-byte file offsets, which is what lets
// ReadIndexMapped alias them straight out of the file image. Version 4
// keeps that layout and cuts the tagtables section down to the PureText
// flags. Version 5 drops the text lengths from the fm section: the FM-index
// reads the text boundaries from the texts section. It is the only version
// read; older files are rebuilt from their XML.
const (
	IndexMagic   = "SXSIGO"
	indexVersion = 5
)

// maxLabels caps the label count of a loaded index.
const maxLabels = 1 << 26

// Section identifiers of the container.
const (
	secNames uint32 = iota + 1
	secTree
	secTags
	secLeaves
	secTexts
	secFM
	secTagTables
)

// ErrBadIndexFile reports a corrupted or incompatible index file. It is an
// alias of the persistence layer's corruption error, so both
// errors.Is(err, ErrBadIndexFile) and errors.Is(err, persist.ErrCorrupt)
// match.
var ErrBadIndexFile = persist.ErrCorrupt

// WriteTo serializes the index. It returns the number of bytes written.
func (d *Doc) WriteTo(w io.Writer) (int64, error) {
	fw := persist.NewFileWriter(w, IndexMagic, indexVersion)
	fw.Section(secNames, func(pw *persist.Writer) {
		pw.Int(len(d.names))
		for _, s := range d.names {
			pw.String(s)
		}
	})
	fw.Section(secTree, func(pw *persist.Writer) { d.Par.Store(pw) })
	fw.Section(secTags, func(pw *persist.Writer) { d.Tag.Store(pw) })
	fw.Section(secLeaves, func(pw *persist.Writer) {
		pw.Int(d.nText)
		d.leafB.Store(pw)
	})
	fw.Section(secTexts, func(pw *persist.Writer) {
		// One blob plus cumulative end offsets (64-bit: text collections are
		// not bounded to 2 GiB here): the loader restores the collection
		// with a single allocation and d subslices.
		pw.Int(d.nText)
		total := uint64(0)
		offs := make([]uint64, d.nText)
		for id := 0; id < d.nText; id++ {
			total += uint64(len(d.Text(id)))
			offs[id] = total
		}
		pw.Words(offs)
		pw.Uint64(total)
		for id := 0; id < d.nText; id++ {
			pw.Raw(d.Text(id))
		}
	})
	if d.FM != nil {
		fw.Section(secFM, func(pw *persist.Writer) { d.FM.Store(pw) })
	}
	fw.Section(secTagTables, func(pw *persist.Writer) {
		pure := make([]byte, len(d.pureText))
		for i, p := range d.pureText {
			if p {
				pure[i] = 1
			}
		}
		pw.Bytes(pure)
	})
	return fw.Close()
}

// ReadIndexMapped deserializes an index written by WriteTo out of data —
// an mmap'd file or a private copy of the whole file (package mmap) —
// aliasing the word, int32 and text payloads in place instead of copying
// them. Only the derived directories (rank/select structures, the BP
// range-min-max tree) are built in private memory, so opening is
// O(derived structures) and, on a mapping, the payload pages
// stay shared with the OS page cache. The plain-text store is kept unless
// opts.SkipPlain is set; with opts.SkipFM the FM section is skipped without
// being decoded.
//
// data must be 8-byte aligned at its base (mmap images and
// persist.AlignedBuffer both are) and must stay alive and unchanged for
// the whole lifetime of the returned Doc; the Doc must be treated as
// read-only even more strictly than usual, since its slices may point into
// read-only pages. A container of any version other than the current one
// fails with ErrBadIndexFile.
func ReadIndexMapped(data []byte, opts Options) (*Doc, error) {
	mf, err := persist.OpenMappedContainer(data, IndexMagic)
	if err != nil {
		return nil, err
	}
	if v := mf.Version(); v != indexVersion {
		return nil, fmt.Errorf("%w: index format version %d, this build reads only version %d; rebuild the index with 'sxsi build'",
			ErrBadIndexFile, v, indexVersion)
	}
	// Walking the container is just slicing, so collect the sections first
	// and decode them concurrently: every known section writes disjoint
	// parts of the document, and the per-section work is pure
	// derived-directory construction, which is what dominates the open
	// latency. Duplicate sections are rejected up front — the writer never
	// produces them, and rejecting is what makes the disjointness hold.
	type sect struct {
		id uint32
		mr *persist.MReader
	}
	var sects []sect
	var seen [secTagTables + 1]bool
	for {
		id, mr, err := mf.Next()
		if err != nil {
			return nil, err
		}
		if id == 0 {
			break
		}
		if id > secTagTables {
			continue // unknown section from a future minor revision: skip
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrBadIndexFile, id)
		}
		seen[id] = true
		sects = append(sects, sect{id, mr})
	}
	sd := &sectionDecoder{d: &Doc{nameID: map[string]int32{}}, opts: opts}
	errs := make([]error, len(sects))
	var wg sync.WaitGroup
	for i, s := range sects {
		wg.Add(1)
		go func(i int, s sect) {
			defer wg.Done()
			defer func() {
				// The no-panic contract of the loaders is tested, but a slipped
				// panic must surface as a load error, not kill the process from
				// a bare goroutine.
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("%w: section %d: %v", ErrBadIndexFile, s.id, r)
				}
			}()
			errs[i] = sd.decode(s.id, s.mr)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	d, err := sd.d.assemble(sd.texts, sd.haveTexts, opts)
	if err != nil {
		return nil, err
	}
	d.aliasedBytes = len(data)
	return d, nil
}

// sectionDecoder accumulates the decoded sections. Each section id writes
// its own fields only, which is what lets ReadIndexMapped decode sections
// in parallel without locks.
type sectionDecoder struct {
	d         *Doc
	opts      Options
	texts     *TextStore
	haveTexts bool
}

func (sd *sectionDecoder) decode(id uint32, pr *persist.MReader) error {
	d := sd.d
	switch id {
	case secNames:
		// Each name carries at least its 8-byte length prefix.
		n := pr.Len(8, maxLabels)
		if err := pr.Check(n >= len(reservedLabels), "implausible name count"); err != nil {
			return err
		}
		d.names = make([]string, 0, n)
		for i := 0; i < n; i++ {
			s := pr.String()
			if pr.Err() != nil {
				return pr.Err()
			}
			d.names = append(d.names, s)
			d.nameID[s] = int32(i)
		}
		if err := pr.Check(len(d.nameID) == n, "duplicate label name"); err != nil {
			return err
		}
		if err := pr.Check([4]string(d.names) == reservedLabels, "reserved labels out of place"); err != nil {
			return err
		}
	case secTree:
		if d.Par = bp.Read(pr); d.Par == nil {
			return pr.Err()
		}
	case secTags:
		if d.Tag = tags.Read(pr); d.Tag == nil {
			return pr.Err()
		}
	case secLeaves:
		d.nText = pr.Int()
		if d.leafB = bitvec.ReadVector(pr); d.leafB == nil {
			return pr.Err()
		}
	case secTexts:
		return sd.decodeTexts(pr)
	case secFM:
		if sd.opts.SkipFM {
			return nil // skipped by section length, never decoded
		}
		fm := fmindex.Read(pr)
		if fm == nil {
			return pr.Err()
		}
		d.FM = fm
	case secTagTables:
		// The length is checked against the label table in assemble.
		pure := pr.Bytes()
		if pr.Err() != nil {
			return pr.Err()
		}
		d.pureText = make([]bool, len(pure))
		for i, b := range pure {
			d.pureText[i] = b != 0
		}
	default:
		// Unknown section from a future minor revision: skip.
	}
	return nil
}

// decodeTexts restores the text collection: one blob plus cumulative end
// offsets, both aliasing the buffer, wrapped in a TextStore — no per-text
// headers are materialized. The only per-text
// cost left is the monotonicity validation (Get's slicing depends on it),
// chunked across the CPUs since millions of texts are normal.
func (sd *sectionDecoder) decodeTexts(pr *persist.MReader) error {
	n := pr.Len(8, math.MaxInt) // one end offset per text
	offs := pr.Words()
	total := pr.Int()
	if pr.Err() != nil {
		return pr.Err()
	}
	if err := pr.Check(len(offs) == n, "text offset count mismatch"); err != nil {
		return err
	}
	last := uint64(0)
	if n > 0 {
		last = offs[n-1]
	}
	if err := pr.Check(last == uint64(total), "text blob length mismatch"); err != nil {
		return err
	}
	blob := pr.Raw(total)
	if pr.Err() != nil {
		return pr.Err()
	}
	var bad atomic.Bool
	persist.Chunked(n, func(lo, hi int) {
		prev := uint64(0)
		if lo > 0 {
			prev = offs[lo-1]
		}
		for i := lo; i < hi; i++ {
			// A chunk's seed offset is validated by its left neighbor; within
			// the chunk the comparison chain establishes prev <= o <= total.
			o := offs[i]
			if o < prev {
				bad.Store(true)
				return
			}
			prev = o
		}
	})
	if err := pr.Check(!bad.Load(), "text offsets not monotone"); err != nil {
		return err
	}
	sd.texts = NewTextStore(blob, offs)
	sd.haveTexts = true
	return nil
}

// assemble cross-validates the decoded sections and fills the redundant
// parts.
func (d *Doc) assemble(texts *TextStore, haveTexts bool, opts Options) (*Doc, error) {
	if d.names == nil || d.Par == nil || d.Tag == nil || d.leafB == nil || !haveTexts || d.pureText == nil {
		return nil, fmt.Errorf("%w: missing a required section", ErrBadIndexFile)
	}
	n := d.Par.Len()
	ok := d.Tag.Len() == n &&
		d.Tag.NumIDs() == 2*len(d.names) &&
		len(d.pureText) == len(d.names) &&
		d.leafB.Len() == n &&
		d.leafB.Ones() == d.nText &&
		texts.Len() == d.nText
	if !ok {
		return nil, fmt.Errorf("%w: sections are inconsistent", ErrBadIndexFile)
	}
	// Every leaf position must hold an opening parenthesis: word-parallel,
	// every leaf bit must also be set in the parenthesis vector. (Both
	// vectors have length n, so the word arrays line up; per-position
	// IsOpen — let alone per-id Select1 — would dominate the whole load.)
	parWords := d.Par.BitWords()
	for wi, w := range d.leafB.Words() {
		if w&^parWords[wi] != 0 {
			return nil, fmt.Errorf("%w: text leaf at closing parenthesis", ErrBadIndexFile)
		}
	}
	if !opts.SkipPlain {
		d.Plain = texts
	}
	switch {
	case d.FM != nil:
		// The FM-index maps rows to texts through the text store's end
		// offsets (one per text, checked above): the one record of the
		// text boundaries.
		if !d.FM.SetTextEnds(texts.offs) {
			return nil, fmt.Errorf("%w: FM-index does not match the texts", ErrBadIndexFile)
		}
	case !opts.SkipFM:
		// The file carries no FM-index but the caller wants one: rebuild it.
		fm, err := fmindex.NewCtx(context.Background(), texts.All(), fmindex.Options{SampleRate: opts.SampleRate})
		if errors.Is(err, fmindex.ErrNulByte) {
			// Parsing replaces every NUL in a text: the file is damaged.
			return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
		}
		if err != nil {
			return nil, err
		}
		d.FM = fm
	}
	return d, nil
}
