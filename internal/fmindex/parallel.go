package fmindex

// FM-index construction: parallel and memory-bounded (the write-side
// counterpart of the mmap read path). NewCtx copies the text collection
// once into T, a flat byte string with byte 0 as every text's terminator,
// chunks it at text boundaries, runs SA-IS over the chunks concurrently,
// and merges the per-chunk suffix orders into the one global suffix order
// of the whole collection. The result depends on neither the worker count
// nor the memory budget; the equivalence suite pins it against a naive
// suffix sort across corpora, worker counts and budgets.
//
// Why per-chunk sorting is exact: every text carries a distinct terminator
// that sorts below all characters and by text identifier (Section 3.2's
// fixed ordering), so any two distinct suffixes differ at or before the
// first terminator either one contains. Suffix comparisons therefore never
// cross a text boundary, and a chunk-local sort (with terminators
// renumbered 0..m-1, preserving relative order) agrees with the global
// order. Two suffixes from different chunks compare on T's bytes up to the
// first 0 either one reaches; when both reach it at the same offset the
// lower position wins, because positions run in text order.
//
// The merge is parallel too: the global suffix order splits into
// independent output segments by suffix prefix (the d terminator rows
// first, then one bucket per leading byte, recursively refined while a
// bucket stays oversized), and every segment k-way-merges its per-chunk
// subranges into a disjoint range of the output BWT. A merge compare reads
// 8 bytes of T at a time as one big-endian word; a row's BWT symbol is the
// byte before it in T, and only the d rows that start a text look up
// which one (binary search over the text starts, for the Doc array).
//
// Memory is bounded by construction: the chunk size caps the SA-IS working
// set per worker, and when holding every chunk's suffix array in RAM
// beside T and the BWT would exceed the budget they are spilled to
// temporary files and streamed back during the merge.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/sais"
	"repro/internal/wavelet"
)

// Options configure index construction. The zero value samples every 64th
// position and builds with all CPUs, unbounded memory and the system temp
// directory.
type Options struct {
	// SampleRate is the text-position sampling step l (Section 3.1). Every
	// l-th position of T is sampled for locating. Default 64.
	SampleRate int
	// Procs is the number of concurrent workers for the sort and merge
	// stages (0 = GOMAXPROCS). Any value produces the same index.
	Procs int
	// MemoryBudget bounds the transient construction memory in bytes: the
	// concurrent SA-IS working sets, the retained per-chunk suffix arrays
	// (spilled to disk when they alone would blow the budget), the BWT
	// scratch buffer and the flat copy of the texts the merge reads. 0
	// means unbounded. The budget cannot undercut the hard floor of the
	// flat copy and the BWT buffer (2|T| bytes) plus one minimal chunk
	// working set; smaller budgets are honored best-effort at that floor.
	MemoryBudget int64
	// TempDir receives suffix-array spill files ("" = os.TempDir()).
	TempDir string
	// Stats, when non-nil, receives the realized plan (observability and
	// test hooks).
	Stats *BuildStats
}

// BuildStats reports what the planner decided.
type BuildStats struct {
	Chunks     int   // number of text-collection chunks sorted independently
	Procs      int   // realized worker count
	Spilled    bool  // whether chunk suffix arrays went through temp files
	MergeTasks int   // number of independent merge segments
	ChunkSyms  int   // target chunk size in symbols
	Transient  int64 // planned transient-memory estimate in bytes
}

const (
	// saisBytesPerSym estimates the SA-IS working set per input symbol:
	// the int32 chunk string, the sorter's shifted copy and output array
	// (4 bytes each), the type bitmap, and the geometric recursion tail.
	saisBytesPerSym = 18
	// minChunkSyms floors the chunk size: below this, per-chunk fixed
	// costs (alphabet buckets, goroutines, spill files) dominate.
	minChunkSyms = 64 << 10
	// maxChunks caps the merge fan-in so heap depth and spill-file
	// buffers stay bounded even under tiny budgets.
	maxChunks = 512
	// minTaskRows is the smallest merge segment worth splitting further.
	minTaskRows = 16 << 10
	// maxSplitDepth bounds prefix refinement of oversized buckets; ties
	// deeper than this are rare enough that balance no longer matters.
	maxSplitDepth = 8
	// mergePollStride is how many output rows a merge segment emits
	// between context polls.
	mergePollStride = 1 << 16
	// spillBufBytes is the write buffer per spill file and the read
	// buffer per (segment, chunk) cursor when suffix arrays are spilled.
	spillBufBytes = 64 << 10
)

// NewCtx builds the index over the given texts, which must not contain
// byte 0, using up to opts.Procs workers and at most opts.MemoryBudget
// bytes of transient construction memory. Cancellation is polled in every
// stage; on error or cancellation all temporary state (including spill
// files) is released and nothing partially built escapes.
func NewCtx(ctx context.Context, texts [][]byte, opts Options) (*Index, error) {
	if opts.SampleRate <= 0 {
		opts.SampleRate = 64
	}
	d := len(texts)
	n, err := collectionSize(texts)
	if err != nil {
		return nil, err
	}
	idx := &Index{d: d, n: n, l: opts.SampleRate}
	if d == 0 {
		idx.bwt = wavelet.New(nil)
		idx.bs = bitvec.FromBools(nil)
		return idx, nil
	}

	// The flat copy is T itself: every text followed by its terminator,
	// written as byte 0, plus 7 zero bytes so that a key load at any
	// position of T reads a whole word. starts[t] is text t's first
	// position, starts[d] = n; ends holds the texts' cumulative end offsets.
	flat := make([]byte, n+7)
	starts := make([]int, d+1)
	idx.ends = make([]uint64, d)
	pos := 0
	for i, t := range texts {
		if i&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		if bytes.IndexByte(t, 0) >= 0 {
			return nil, ErrNulByte
		}
		starts[i] = pos
		copy(flat[pos:], t)
		pos += len(t) + 1
		idx.ends[i] = uint64(pos - i - 1)
	}
	starts[d] = n

	plan := planBuild(n, opts)
	if opts.Stats != nil {
		defer func() { *opts.Stats = plan.stats() }()
	}
	chunks, cleanup, err := sortChunks(ctx, flat, starts, plan)
	defer cleanup()
	if err != nil {
		return nil, err
	}

	bwt := make([]byte, n)
	outs, err := mergeChunks(ctx, flat, starts, chunks, plan, bwt, idx.l)
	if err != nil {
		return nil, err
	}
	// Free the chunk suffix arrays (and spill files) before the wavelet
	// build doubles down on allocation.
	// No poll: chunks is capped at maxChunks (512) by planBuild, O(1) body
	for _, c := range chunks {
		c.rows = nil
	}
	cleanup()

	// Stitch the per-segment side outputs back together in row order and
	// derive the count table from the chunk histograms: the BWT is a
	// permutation of the collection's symbol multiset, so the counts are
	// the text byte histogram plus one collapsed 0 per terminator.
	sampled := bitvec.New(n)
	for _, o := range outs {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		idx.doc = append(idx.doc, o.doc...)
		for _, s := range o.samples {
			sampled.Set(int(s.row))
			idx.ps = append(idx.ps, s.pos)
		}
	}
	sampled.Build()
	idx.bs = sampled
	idx.c[1] = d
	// No poll: at most maxChunks (512) iterations of a 256-entry histogram add
	for _, c := range chunks {
		for b, cnt := range c.hist {
			idx.c[b+1] += int(cnt)
		}
	}
	for i := 1; i <= 256; i++ {
		idx.c[i] += idx.c[i-1]
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	idx.bwt = wavelet.New(bwt)
	return idx, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// buildPlan is the realized resource plan.
type buildPlan struct {
	procs     int
	chunkSyms int // target symbols per chunk
	spill     bool
	even      bool // unbounded: cut chunks at the text boundaries nearest k·n/P
	tempDir   string
	transient int64
	nChunks   int // filled after chunking
	nTasks    int // filled after merge planning
}

func (p *buildPlan) stats() BuildStats {
	return BuildStats{
		Chunks: p.nChunks, Procs: p.procs, Spilled: p.spill,
		MergeTasks: p.nTasks, ChunkSyms: p.chunkSyms, Transient: p.transient,
	}
}

// planBuild sizes chunks and concurrency against the memory budget.
// Unbounded: one chunk per worker. Bounded: the concurrent SA-IS working
// sets get at most half the budget (the other half covers the flat text,
// the BWT scratch and retained suffix arrays), workers shed if even
// minimal chunks would not fit, and suffix arrays spill to disk when
// holding them all in RAM (4 bytes/symbol) beside the flat text and the
// BWT buffer would overflow.
func planBuild(n int, opts Options) *buildPlan {
	p := &buildPlan{procs: opts.Procs, tempDir: opts.TempDir}
	if p.procs <= 0 {
		p.procs = runtime.GOMAXPROCS(0)
	}
	minChunk := minChunkSyms
	if n/maxChunks > minChunk {
		minChunk = n / maxChunks
	}
	if opts.MemoryBudget <= 0 {
		p.even = true
		p.chunkSyms = max((n+p.procs-1)/p.procs, minChunk)
		p.transient = int64(6*n) + int64(p.procs)*saisBytesPerSym*int64(p.chunkSyms)
		return p
	}
	budget := opts.MemoryBudget
	for p.procs > 1 && int64(p.procs)*saisBytesPerSym*int64(minChunk) > budget/2 {
		p.procs--
	}
	p.chunkSyms = int(budget / (2 * saisBytesPerSym * int64(p.procs)))
	if p.chunkSyms < minChunk {
		p.chunkSyms = minChunk
	}
	if perProc := (n + p.procs - 1) / p.procs; p.chunkSyms > perProc && perProc >= minChunk {
		p.chunkSyms = perProc
	}
	inflight := int64(p.procs) * saisBytesPerSym * int64(p.chunkSyms)
	p.spill = int64(2*n)+int64(4*n)+inflight > budget // flat + bwt + retained SAs + sorting
	p.transient = int64(2*n) + inflight
	if !p.spill {
		p.transient += int64(4 * n)
	}
	return p
}

// chunkSA is one sorted chunk: a contiguous text range, its suffix rows
// that start with a character (terminator rows are reconstructed directly),
// and the first-byte bucket boundaries within them.
type chunkSA struct {
	m      int      // number of texts
	lo, hi int      // global position range [lo, hi) of the chunk's symbols
	rows   []int32  // char-starting suffix positions (global), sorted; nil when spilled
	f      *os.File // spill file holding rows as little-endian int32s
	cum    [257]int64
	hist   [256]int64 // byte histogram of the chunk's texts
}

// cutChunks partitions the texts into chunks and returns the text id
// boundaries 0 = b[0] < b[1] < ... = d. An unbounded plan cuts at the text
// boundaries nearest k·n/parts, so P workers get P chunks of about equal
// size; a bounded plan closes each chunk before it would pass chunkSyms
// symbols, which is what its memory budget was sized for.
func cutChunks(ctx context.Context, starts []int, plan *buildPlan) ([]int, error) {
	d := len(starts) - 1
	n := starts[d]
	bounds := []int{0}
	if plan.even {
		parts := (n + plan.chunkSyms - 1) / plan.chunkSyms
		for k := 1; k < parts; k++ {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			target := k * n / parts
			t := sort.SearchInts(starts, target) // starts[t] >= target, t <= d
			if t > 0 && target-starts[t-1] < starts[t]-target {
				t--
			}
			if t > bounds[len(bounds)-1] && t < d {
				bounds = append(bounds, t)
			}
		}
		return append(bounds, d), nil
	}
	for tlo := 0; tlo < d; {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// The last boundary at most chunkSyms symbols on, but one text at least.
		thi := sort.SearchInts(starts, starts[tlo]+plan.chunkSyms+1) - 1
		thi = max(thi, tlo+1)
		bounds = append(bounds, thi)
		tlo = thi
	}
	return bounds, nil
}

// sortChunks partitions the collection at text boundaries and suffix-sorts
// the chunks concurrently. The returned cleanup closes and removes any
// spill files; it is safe to call more than once.
func sortChunks(ctx context.Context, flat []byte, starts []int, plan *buildPlan) ([]*chunkSA, func(), error) {
	bounds, err := cutChunks(ctx, starts, plan)
	if err != nil {
		return nil, func() {}, err
	}
	chunks := make([]*chunkSA, len(bounds)-1)
	// No poll: at most maxChunks (512) chunks, O(1) body
	for i := range chunks {
		tlo, thi := bounds[i], bounds[i+1]
		chunks[i] = &chunkSA{m: thi - tlo, lo: starts[tlo], hi: starts[thi]}
	}
	plan.nChunks = len(chunks)
	cleanup := func() {
		// No poll: cleanup over at most maxChunks (512) spill files; must run even when ctx is dead
		for _, c := range chunks {
			if c.f != nil {
				name := c.f.Name()
				c.f.Close()
				os.Remove(name)
				c.f = nil
			}
		}
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		failed   atomic.Bool
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	sem := make(chan struct{}, plan.procs)
	for _, c := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *chunkSA) {
			defer func() { <-sem; wg.Done() }()
			if failed.Load() {
				return
			}
			if err := sortOneChunk(ctx, flat, c, plan); err != nil {
				fail(err)
			}
		}(c)
	}
	wg.Wait()
	if failed.Load() {
		cleanup()
		return nil, func() {}, firstErr
	}
	return chunks, cleanup, nil
}

// sortOneChunk builds the chunk's integer string with renumbered
// terminators (0..m-1, preserving relative order), suffix-sorts it, and
// keeps the char-starting rows as global positions — in RAM or spilled.
func sortOneChunk(ctx context.Context, flat []byte, c *chunkSA, plan *buildPlan) error {
	s := make([]int32, 0, c.hi-c.lo)
	rest := flat[c.lo:c.hi]
	for i := 0; i < c.m; i++ {
		if i&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		e := bytes.IndexByte(rest, 0)
		for _, ch := range rest[:e] {
			s = append(s, int32(c.m)+int32(ch))
			c.hist[ch]++
		}
		s = append(s, int32(i))
		rest = rest[e+1:]
	}
	sa, err := sais.Compute(ctx, s, c.m+256)
	if err != nil {
		return err
	}
	s = nil
	// First-byte bucket boundaries: cum[b] = rows with first byte < b,
	// derived from the histogram (the rows are sorted by suffix, and the
	// m terminator rows sort before every char row).
	var acc int64
	for b := 0; b < 256; b++ {
		c.cum[b] = acc
		acc += c.hist[b]
	}
	c.cum[256] = acc
	// Drop the terminator rows and globalize the rest in place.
	rows := sa[c.m:]
	for i, p := range rows {
		if i&(mergePollStride-1) == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		rows[i] = int32(c.lo) + p
	}
	if !plan.spill {
		c.rows = rows
		return nil
	}
	f, err := os.CreateTemp(plan.tempDir, "sxsi-sa-*.tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, spillBufBytes)
	var le [4]byte
	for i, p := range rows {
		if i&(mergePollStride-1) == 0 {
			if err := ctxErr(ctx); err != nil {
				f.Close()
				os.Remove(f.Name())
				return err
			}
		}
		binary.LittleEndian.PutUint32(le[:], uint32(p))
		if _, err := w.Write(le[:]); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	c.f = f
	return nil
}

// rowAt reads the i-th char row of a chunk (RAM or spill file).
func (c *chunkSA) rowAt(i int64) (int32, error) {
	if c.rows != nil {
		return c.rows[i], nil
	}
	var b [4]byte
	if _, err := c.f.ReadAt(b[:], i*4); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(b[:])), nil
}

// sample is one locate sample: the BWT row it was taken at and the global
// text position it records.
type sample struct{ row, pos int32 }

// segOut is the side output of one merge segment, in row order.
type segOut struct {
	doc     []int32
	samples []sample
}

// mergeSeg is one independent slice of the global suffix order: per chunk,
// the half-open row range holding this segment's suffixes, plus the
// absolute output row where the segment starts.
type mergeSeg struct {
	row        int
	size       int64
	depth      int  // symbols of shared prefix (split refinement depth)
	splittable bool // false for terminator classes and exhausted splits
	ranges     [][2]int64
}

// mergeChunks emits the terminator rows directly, plans the bucket
// segments, refines oversized ones by deeper suffix prefixes, and merges
// all segments concurrently into bwt. Side outputs come back in row order.
func mergeChunks(ctx context.Context, flat []byte, starts []int, chunks []*chunkSA, plan *buildPlan, bwt []byte, l int) ([]segOut, error) {
	d := len(starts) - 1
	n := len(bwt)

	// Terminator rows 0..d-1: the suffix starting at text t's terminator
	// sits at row t. Its BWT symbol is the text's last byte — or, for an
	// empty text, the previous terminator, which collapses to byte 0 and
	// contributes the doc entry of the text starting at that position.
	var termOut segOut
	for t := 0; t < d; t++ {
		if t&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		p := starts[t+1] - 1
		if p == starts[t] {
			termOut.doc = append(termOut.doc, int32(t))
		} else {
			bwt[t] = flat[p-1]
		}
		termOut.samples = appendSample(termOut.samples, int32(t), int32(p), l)
	}

	// Initial segments: one per leading byte, rows d.. onwards.
	segs := make([]*mergeSeg, 0, 64)
	row := d
	for b := 0; b < 256; b++ {
		var size int64
		ranges := make([][2]int64, len(chunks))
		for ci, c := range chunks {
			ranges[ci] = [2]int64{c.cum[b], c.cum[b+1]}
			size += c.cum[b+1] - c.cum[b]
		}
		if size == 0 {
			continue
		}
		segs = append(segs, &mergeSeg{row: row, size: size, depth: 1, splittable: true, ranges: ranges})
		row += int(size)
	}
	if row != n {
		return nil, fmt.Errorf("fmindex: internal: bucket rows %d != %d", row, n)
	}

	// Refine oversized segments so the workers stay busy even on skewed
	// alphabets (four-letter DNA collections put a quarter of the rows in
	// one bucket).
	threshold := int64(n-d) / int64(4*plan.procs)
	if threshold < minTaskRows {
		threshold = minTaskRows
	}
	refined := make([]*mergeSeg, 0, len(segs))
	queue := segs
	for len(queue) > 0 {
		sg := queue[0]
		queue = queue[1:]
		if !sg.splittable || sg.size <= threshold || sg.depth >= maxSplitDepth {
			refined = append(refined, sg)
			continue
		}
		subs, err := splitSeg(sg, flat, chunks)
		if err != nil {
			return nil, err
		}
		if len(subs) <= 1 {
			sg.splittable = false // one class only: splitting cannot help
			refined = append(refined, sg)
			continue
		}
		queue = append(queue, subs...)
	}
	sort.Slice(refined, func(i, j int) bool { return refined[i].row < refined[j].row })
	plan.nTasks = len(refined)

	// Merge the segments concurrently, largest first so a big segment is
	// not left running alone at the tail.
	order := make([]int, len(refined))
	// No poll: O(1)-body init over segment count; the adjacent sort.Slice cannot poll and dominates it
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return refined[order[i]].size > refined[order[j]].size })
	outs := make([]segOut, len(refined))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		failed   atomic.Bool
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	sem := make(chan struct{}, plan.procs)
	for _, oi := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(oi int) {
			defer func() { <-sem; wg.Done() }()
			if failed.Load() {
				return
			}
			out, err := mergeOneSeg(ctx, refined[oi], flat, starts, chunks, bwt, l)
			if err != nil {
				fail(err)
				return
			}
			outs[oi] = out
		}(oi)
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return append([]segOut{termOut}, outs...), nil
}

func appendSample(s []sample, row, pos int32, every int) []sample {
	if int(pos)%every == 0 {
		s = append(s, sample{row: row, pos: pos})
	}
	return s
}

// splitSeg partitions a segment by the symbol at its refinement depth:
// first the terminator class (suffixes ending exactly at the shared-prefix
// boundary, byte 0 of the flat text), then one class per next byte. Each
// chunk's subranges are found by binary search — the rows of a segment
// share their first depth symbols, so the symbol at that depth is
// nondecreasing across them; spilled chunks are probed with point reads.
func splitSeg(sg *mergeSeg, flat []byte, chunks []*chunkSA) ([]*mergeSeg, error) {
	k := sg.depth
	// cuts[ci] holds 257 cut points per chunk: before the terminator
	// class, after it (= before byte 1), ..., after byte 255.
	cuts := make([][257]int64, len(chunks))
	var probeErr error
	symAt := func(c *chunkSA, i int64) byte {
		p, err := c.rowAt(i)
		if err != nil {
			probeErr = err
			return 0
		}
		return flat[int(p)+k]
	}
	for ci, c := range chunks {
		lo, hi := sg.ranges[ci][0], sg.ranges[ci][1]
		cuts[ci][0] = lo
		// One binary search per class: the first row past it.
		for cls := 0; cls < 256; cls++ {
			base := cuts[ci][cls]
			idx := int64(sort.Search(int(hi-base), func(i int) bool {
				return int(symAt(c, base+int64(i))) > cls
			}))
			cuts[ci][cls+1] = base + idx
			if probeErr != nil {
				return nil, probeErr
			}
		}
	}
	subs := make([]*mergeSeg, 0, 8)
	row := sg.row
	for cls := 0; cls < 256; cls++ {
		var size int64
		ranges := make([][2]int64, len(chunks))
		for ci := range chunks {
			ranges[ci] = [2]int64{cuts[ci][cls], cuts[ci][cls+1]}
			size += cuts[ci][cls+1] - cuts[ci][cls]
		}
		if size == 0 {
			continue
		}
		// Class 0 is the terminator class: fully ordered by text id, its
		// suffix remainders are at most depth bytes, never worth splitting
		// further. Byte classes may recurse.
		subs = append(subs, &mergeSeg{
			row: row, size: size, depth: k + 1, splittable: cls > 0, ranges: ranges,
		})
		row += int(size)
	}
	return subs, nil
}

// cursor streams one chunk's rows of a merge segment.
type cursor struct {
	c    *chunkSA
	next int64 // next row index within the chunk
	end  int64
	rd   *bufio.Reader // spill reader, nil for RAM chunks

	pos int    // the current row's suffix position in T
	key uint64 // its 8 symbols from the segment's skip offset on, see keyAt
}

func (cu *cursor) advance() (bool, error) {
	if cu.next >= cu.end {
		return false, nil
	}
	if cu.rd != nil {
		var le [4]byte
		if _, err := io.ReadFull(cu.rd, le[:]); err != nil {
			return false, err
		}
		cu.pos = int(binary.LittleEndian.Uint32(le[:]))
	} else {
		cu.pos = int(cu.c.rows[cu.next])
	}
	cu.next++
	return true, nil
}

const low7 = 0x7f7f7f7f7f7f7f7f

// keyAt reads the 8 symbols of T from position q as a big-endian word, so
// that keys compare like the byte strings they hold, and clears every byte
// after the first terminator: what follows it belongs to the next text. A
// key that reaches a terminator therefore ends in a zero byte, and any
// other key does not.
func keyAt(flat []byte, q int) uint64 {
	x := binary.BigEndian.Uint64(flat[q:])
	// 0x80 in exactly the zero bytes of x, with no carry between bytes.
	zero := ^((x&low7 + low7) | x | low7)
	if zero == 0 {
		return x
	}
	return x &^ (^uint64(0) >> (bits.LeadingZeros64(zero) + 8))
}

// merger k-way-merges the cursors of one segment. Its suffixes agree on
// their first skip bytes, so keys start at offset skip; one further would
// read past the terminators that a terminator class ends in.
type merger struct {
	flat   []byte
	starts []int
	skip   int
	bwt    []byte
	l      int
	row    int32
	out    segOut
}

// less orders two cursors by their suffixes: by key, then 8 symbols per
// step under the same mask. Two suffixes that reach their terminators at
// the same offset are ordered by position, which is text order and so
// Section 3.2's terminator order.
func (m *merger) less(a, b *cursor) bool {
	ka, kb := a.key, b.key
	for q := m.skip + 8; ka == kb; q += 8 {
		if ka&0xff == 0 {
			return a.pos < b.pos
		}
		ka, kb = keyAt(m.flat, a.pos+q), keyAt(m.flat, b.pos+q)
	}
	return ka < kb
}

// emit writes the row of the suffix at p: its BWT symbol T[p-1] (T[n-1],
// a terminator, for p = 0), and when that is a terminator, the doc entry
// of the text starting at p (the paper's Doc convention).
func (m *merger) emit(p int) {
	var prev byte
	if p > 0 {
		prev = m.flat[p-1]
	}
	m.bwt[m.row] = prev
	if prev == 0 {
		m.out.doc = append(m.out.doc, int32(sort.SearchInts(m.starts, p)))
	}
	m.out.samples = appendSample(m.out.samples, m.row, int32(p), m.l)
	m.row++
}

func (m *merger) siftDown(h []*cursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && m.less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && m.less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// mergeOneSeg k-way-merges one segment's chunk subranges into its disjoint
// slice of the output BWT, collecting doc entries and locate samples in
// row order. Single-chunk segments stream without a heap and load no key.
func mergeOneSeg(ctx context.Context, sg *mergeSeg, flat []byte, starts []int, chunks []*chunkSA, bwt []byte, l int) (segOut, error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	m := &merger{flat: flat, starts: starts, skip: sg.depth - 1, bwt: bwt, l: l, row: int32(sg.row)}
	var curs []*cursor
	// No poll: cursor setup over at most maxChunks (512) chunks, one buffered open each
	for ci, c := range chunks {
		lo, hi := sg.ranges[ci][0], sg.ranges[ci][1]
		if lo >= hi {
			continue
		}
		cu := &cursor{c: c, next: lo, end: hi}
		if c.rows == nil {
			cu.rd = bufio.NewReaderSize(io.NewSectionReader(c.f, lo*4, (hi-lo)*4), spillBufBytes)
		}
		if _, err := cu.advance(); err != nil {
			return m.out, err
		}
		curs = append(curs, cu)
	}
	poll := mergePollStride
	checkPoll := func() error {
		poll--
		if poll > 0 || ctx == nil {
			return nil
		}
		poll = mergePollStride
		return ctx.Err()
	}
	if len(curs) == 1 {
		cu := curs[0]
		for {
			m.emit(cu.pos)
			if err := checkPoll(); err != nil {
				return m.out, err
			}
			ok, err := cu.advance()
			if err != nil {
				return m.out, err
			}
			if !ok {
				return m.out, nil
			}
		}
	}
	// Binary min-heap over the cursors.
	h := curs
	// No poll: at most maxChunks (512) cursors, one key load each
	for _, cu := range h {
		cu.key = keyAt(flat, cu.pos+m.skip)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		m.siftDown(h, i)
	}
	for len(h) > 0 {
		cu := h[0]
		m.emit(cu.pos)
		if err := checkPoll(); err != nil {
			return m.out, err
		}
		ok, err := cu.advance()
		if err != nil {
			return m.out, err
		}
		if ok {
			cu.key = keyAt(flat, cu.pos+m.skip)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			m.siftDown(h, 0)
		}
	}
	return m.out, nil
}
