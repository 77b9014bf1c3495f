package fmindex

import (
	"repro/internal/bitvec"
	"repro/internal/persist"
	"repro/internal/wavelet"
)

// On-disk layout: the sampling metadata (Doc array, text lengths, sampled
// positions and the sampled-row bitmap) plus the BWT sequence itself. When
// the sequence is the default wavelet tree it is stored structurally, so
// loading attaches the node bitmaps without re-running the symbol
// distribution pass; any other RankSequence falls back to the raw BWT
// string and is rebuilt by the caller's SequenceBuilder. Either way the
// suffix sort — the dominant construction cost — never runs on load.

const indexFormat = 1

// Sequence payload kinds.
const (
	seqRawBWT  = 0 // raw BWT byte string, rebuilt via the SequenceBuilder
	seqWavelet = 1 // structured wavelet tree
)

// Store serializes the index into pw.
func (x *Index) Store(pw *persist.Writer) {
	pw.Byte(indexFormat)
	pw.Int(x.n)
	pw.Int(x.d)
	pw.Int(x.l)
	pw.Int32s(x.lens)
	pw.Int32s(x.doc)
	pw.Int32s(x.ps)
	x.bs.Store(pw)
	if wt, ok := x.bwt.(storedTree); ok {
		pw.Byte(seqWavelet)
		wt.Store(pw)
	} else {
		pw.Byte(seqRawBWT)
		bwt := make([]byte, x.n)
		for i := range bwt {
			bwt[i] = x.bwt.Access(i)
		}
		pw.Bytes(bwt)
	}
}

// storedTree is the structural-serialization hook: the wavelet tree
// satisfies it; other rank sequences take the raw-BWT path.
type storedTree interface {
	RankSequence
	Store(pw *persist.Writer)
}

// Read reads an index written by Store. builder rebuilds the rank sequence
// when the stored payload is a raw BWT (or when a non-nil builder must
// override a structurally stored wavelet tree). A nil builder keeps the
// stored wavelet tree as is. On corrupt input Read returns nil and leaves
// the error in pr.
func Read(pr *persist.MReader, builder SequenceBuilder) *Index {
	if pr.Check(pr.Byte() == indexFormat, "unknown fm-index format") != nil {
		return nil
	}
	x := &Index{}
	x.n = pr.Int()
	x.d = pr.Int()
	x.l = pr.Int()
	x.lens = pr.Int32s()
	x.doc = pr.Int32s()
	x.ps = pr.Int32s()
	x.bs = bitvec.ReadVector(pr)
	if pr.Err() != nil {
		return nil
	}
	// Anchor n to the sampled-row bitmap before decoding the sequence: the
	// bitmap's length is backed by actually-read words, so a corrupt n
	// cannot drive the BWT materialization below (size or index-wise).
	if pr.Check(x.bs.Len() == x.n, "fm-index length mismatch") != nil {
		return nil
	}
	// The sampling metadata is fully decoded here, so its validation and
	// the text-start directory build are independent of the sequence
	// decode below. They sit on the open-latency path, so the two run
	// concurrently; the goroutine must not touch pr.
	done := make(chan sampleCheck, 1)
	drained := false
	// Every return path must join the goroutine: it reads slices that may
	// alias a mapping the caller unmaps as soon as Read reports an error.
	defer func() {
		if !drained {
			<-done
		}
	}()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- sampleCheck{what: "fm-index sample validation failure"}
			}
		}()
		done <- x.validateSamples()
	}()
	kind := pr.Byte()
	switch kind {
	case seqWavelet:
		wt := wavelet.Read(pr)
		if wt == nil {
			return nil
		}
		if pr.Check(wt.Len() == x.n, "bwt length mismatch") != nil {
			return nil
		}
		if builder != nil {
			// The caller wants a different sequence type: re-materialize the
			// BWT and hand it over.
			bwt := make([]byte, x.n)
			for i := range bwt {
				bwt[i] = wt.Access(i)
			}
			x.bwt = builder(bwt)
		} else {
			x.bwt = wt
		}
	case seqRawBWT:
		bwt := pr.Bytes()
		if pr.Check(len(bwt) == x.n, "bwt length mismatch") != nil {
			return nil
		}
		if builder == nil {
			builder = WaveletBuilder
		}
		x.bwt = builder(bwt)
	default:
		pr.Check(false, "unknown bwt sequence kind")
		return nil
	}
	sc := <-done
	drained = true
	if pr.Check(sc.what == "", sc.what) != nil {
		return nil
	}
	x.strt = sc.strt
	if pr.Check(x.bwt.Len() == x.n && x.bwt.Count(0) == x.d, "fm-index component mismatch") != nil {
		return nil
	}
	for c := 0; c < 256; c++ {
		x.c[c+1] = x.c[c] + x.bwt.Count(byte(c))
	}
	return x
}

// sampleCheck is the outcome of validateSamples: an empty what means the
// metadata is consistent and strt is the text-start directory.
type sampleCheck struct {
	what string
	strt *bitvec.Sparse
}

// validateSamples cross-checks the sampling metadata (text lengths, doc
// identifiers, sampled positions) and builds the text-start sparse vector.
// It depends only on fields decoded before the sequence payload and is
// free of MReader access, so Read overlaps it with the wavelet decode.
func (x *Index) validateSamples() sampleCheck {
	if len(x.lens) != x.d || len(x.doc) != x.d || x.bs.Ones() != len(x.ps) || x.l <= 0 {
		return sampleCheck{what: "fm-index component mismatch"}
	}
	total := 0
	for _, l := range x.lens {
		if l < 0 {
			return sampleCheck{what: "negative text length"}
		}
		total += int(l) + 1
	}
	if x.d > 0 && total != x.n {
		return sampleCheck{what: "text lengths do not sum to collection size"}
	}
	for _, id := range x.doc {
		if id < 0 || int(id) >= x.d {
			return sampleCheck{what: "doc identifier out of range"}
		}
	}
	for _, p := range x.ps {
		if p < 0 || int(p) >= x.n {
			return sampleCheck{what: "sampled position out of range"}
		}
	}
	if x.d == 0 {
		return sampleCheck{strt: bitvec.NewSparse(1, nil)}
	}
	// Stream the text-start positions straight out of the lengths — no
	// intermediate array; this sits on the mapped open-latency path.
	pos := 0
	return sampleCheck{strt: bitvec.NewSparseSeq(x.n+1, x.d, func(i int) int {
		p := pos
		pos += int(x.lens[i]) + 1
		return p
	})}
}
