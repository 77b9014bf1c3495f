package fmindex

// FM-index construction: parallel and memory-bounded (the write-side
// counterpart of the mmap read path). NewCtx chunks the text collection at
// text boundaries, runs SA-IS over the chunks concurrently, and merges the
// per-chunk suffix orders into the one global suffix order of the whole
// collection. The result depends on neither the worker count nor the
// memory budget; the equivalence suite pins it against a naive suffix sort
// across corpora, worker counts and budgets.
//
// Why per-chunk sorting is exact: every text carries a distinct terminator
// that sorts below all characters and by text identifier (Section 3.2's
// fixed ordering), so any two distinct suffixes differ at or before the
// first terminator either one contains. Suffix comparisons therefore never
// cross a text boundary, a chunk-local sort (with terminators renumbered
// 0..m-1, preserving relative order) agrees with the global order, and two
// suffixes from different chunks compare by their raw text bytes with the
// "prefix is smaller" rule plus a text-id tie-break — exactly
// bytes.Compare semantics.
//
// The merge is parallel too: the global suffix order splits into
// independent output segments by suffix prefix (the d terminator rows
// first, then one bucket per leading byte, recursively refined while a
// bucket stays oversized), and every segment k-way-merges its per-chunk
// subranges into a disjoint range of the output BWT.
//
// Memory is bounded by construction: the chunk size caps the SA-IS working
// set per worker, and when holding every chunk's suffix array in RAM would
// exceed the budget they are spilled to temporary files and streamed back
// during the merge.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
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
	// (spilled to disk when they alone would blow the budget) and the BWT
	// scratch buffer. 0 means unbounded. The budget cannot undercut the
	// hard floor of one BWT buffer (|T| bytes) plus one minimal chunk
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
		idx.strt = bitvec.NewSparse(1, nil)
		return idx, nil
	}

	starts := make([]int, d)
	idx.lens = make([]int32, d)
	pos := 0
	for i, t := range texts {
		if i&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		starts[i] = pos
		idx.lens[i] = int32(len(t))
		pos += len(t) + 1
	}
	idx.strt = bitvec.NewSparse(n+1, starts)

	plan := planBuild(n, opts)
	if opts.Stats != nil {
		defer func() { *opts.Stats = plan.stats() }()
	}
	chunks, cleanup, err := sortChunks(ctx, texts, starts, plan)
	defer cleanup()
	if err != nil {
		return nil, err
	}

	bwt := make([]byte, n)
	outs, err := mergeChunks(ctx, texts, starts, chunks, plan, bwt, idx.l)
	if err != nil {
		return nil, err
	}
	// Free the chunk suffix arrays (and spill files) before the wavelet
	// build doubles down on allocation.
	//sxsivet:ignore ctxpoll chunks is capped at maxChunks (512) by planBuild, O(1) body
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
	//sxsivet:ignore ctxpoll at most maxChunks (512) iterations of a 256-entry histogram add
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
// sets get at most half the budget (the other half covers the BWT scratch
// and retained suffix arrays), workers shed if even minimal chunks would
// not fit, and suffix arrays spill to disk when holding them all in RAM
// (4 bytes/symbol) plus the BWT buffer would overflow.
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
		p.chunkSyms = maxInt((n+p.procs-1)/p.procs, minChunk)
		p.transient = int64(5*n) + int64(p.procs)*saisBytesPerSym*int64(p.chunkSyms)
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
	p.spill = int64(n)+int64(4*n)+inflight > budget // bwt + retained SAs + sorting
	p.transient = int64(n) + inflight
	if !p.spill {
		p.transient += int64(4 * n)
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// chunkSA is one sorted chunk: a contiguous text range, its suffix rows
// that start with a character (terminator rows are reconstructed directly),
// and the first-byte bucket boundaries within them.
type chunkSA struct {
	tlo, thi int      // text id range [tlo, thi)
	gstart   int      // global position of the chunk's first symbol
	rows     []int32  // char-starting suffix positions (global), sorted; nil when spilled
	f        *os.File // spill file holding rows as little-endian int32s
	cum      [257]int64
	hist     [256]int64 // byte histogram of the chunk's texts
}

// sortChunks partitions the collection at text boundaries and suffix-sorts
// the chunks concurrently. The returned cleanup closes and removes any
// spill files; it is safe to call more than once.
func sortChunks(ctx context.Context, texts [][]byte, starts []int, plan *buildPlan) ([]*chunkSA, func(), error) {
	var chunks []*chunkSA
	d := len(texts)
	for tlo := 0; tlo < d; {
		if err := ctxErr(ctx); err != nil {
			return nil, func() {}, err
		}
		thi, syms := tlo, 0
		for thi < d && (syms == 0 || syms+len(texts[thi])+1 <= plan.chunkSyms) {
			syms += len(texts[thi]) + 1
			thi++
		}
		chunks = append(chunks, &chunkSA{tlo: tlo, thi: thi, gstart: starts[tlo]})
		tlo = thi
	}
	plan.nChunks = len(chunks)
	cleanup := func() {
		//sxsivet:ignore ctxpoll cleanup over at most maxChunks (512) spill files; must run even when ctx is dead
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
			if err := sortOneChunk(ctx, texts, c, plan); err != nil {
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
func sortOneChunk(ctx context.Context, texts [][]byte, c *chunkSA, plan *buildPlan) error {
	m := c.thi - c.tlo
	syms := 0
	for i, t := range texts[c.tlo:c.thi] {
		if i&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		syms += len(t) + 1
	}
	s := make([]int32, 0, syms)
	for i, t := range texts[c.tlo:c.thi] {
		if i&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		for _, ch := range t {
			if ch == 0 {
				return ErrNulByte
			}
			s = append(s, int32(m)+int32(ch))
			c.hist[ch]++
		}
		s = append(s, int32(i))
	}
	sa, err := sais.ComputeCtx(ctx, s, m+256)
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
	rows := sa[m:]
	for i, p := range rows {
		if i&(mergePollStride-1) == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		rows[i] = int32(c.gstart) + p
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
func mergeChunks(ctx context.Context, texts [][]byte, starts []int, chunks []*chunkSA, plan *buildPlan, bwt []byte, l int) ([]segOut, error) {
	d := len(texts)
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
		p := starts[t] + len(texts[t])
		if len(texts[t]) > 0 {
			bwt[t] = texts[t][len(texts[t])-1]
		} else {
			bwt[t] = 0
			termOut.doc = append(termOut.doc, int32(t))
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
		subs, err := splitSeg(sg, texts, starts, chunks)
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
	//sxsivet:ignore ctxpoll O(1)-body init over segment count; the adjacent sort.Slice cannot poll and dominates it
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
			out, err := mergeOneSeg(ctx, refined[oi], texts, starts, chunks, bwt, l)
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

// suffixKey orders the symbol at offset k of the suffix (t, off): the
// text's terminator (when the suffix ends exactly there) sorts below every
// character and by text id; characters sort by byte value above all
// terminators — the same total order the global integer alphabet realizes.
func suffixKey(texts [][]byte, d int, t int32, off int64, k int) int {
	text := texts[t]
	if off+int64(k) == int64(len(text)) {
		return int(t)
	}
	return d + int(text[off+int64(k)])
}

// splitSeg partitions a segment by the symbol at its refinement depth:
// first the terminator class (suffixes ending exactly at the shared-prefix
// boundary), then one class per next byte. Each chunk's subranges are found
// by binary search — the rows of a segment share their first depth symbols,
// so the symbol at that depth is nondecreasing across them; spilled chunks
// are probed with point reads.
func splitSeg(sg *mergeSeg, texts [][]byte, starts []int, chunks []*chunkSA) ([]*mergeSeg, error) {
	d := len(texts)
	k := sg.depth
	// cuts[ci] holds 258 cut points per chunk: before the terminator
	// class, after it (= before byte 0), ..., after byte 255.
	cuts := make([][258]int64, len(chunks))
	var probeErr error
	keyAt := func(c *chunkSA, i int64) int {
		p, err := c.rowAt(i)
		if err != nil {
			probeErr = err
			return 0
		}
		t, off := locate(starts, c, p)
		return suffixKey(texts, d, t, off, k)
	}
	for ci, c := range chunks {
		lo, hi := sg.ranges[ci][0], sg.ranges[ci][1]
		cuts[ci][0] = lo
		// One binary search per class threshold: first row with key >= d
		// (end of the terminator class), then first row with key >= d+b+1.
		for cls := 0; cls < 257; cls++ {
			thr := d + cls // keys below thr belong to classes before cls
			base := cuts[ci][cls]
			idx := int64(sort.Search(int(hi-base), func(i int) bool {
				return keyAt(c, base+int64(i)) >= thr
			}))
			cuts[ci][cls+1] = base + idx
			if probeErr != nil {
				return nil, probeErr
			}
		}
	}
	subs := make([]*mergeSeg, 0, 8)
	row := sg.row
	for cls := 0; cls < 257; cls++ {
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

// locate maps a global position inside a chunk to (text id, offset).
func locate(starts []int, c *chunkSA, p int32) (int32, int64) {
	lo, hi := c.tlo, c.thi // the position belongs to one of the chunk's texts
	t := lo + sort.Search(hi-lo, func(i int) bool { return starts[lo+i] > int(p) }) - 1
	return int32(t), int64(int(p) - starts[t])
}

// cursor streams one chunk's rows of a merge segment.
type cursor struct {
	c    *chunkSA
	next int64 // next row index within the chunk
	end  int64
	rd   *bufio.Reader // spill reader, nil for RAM chunks

	// current entry
	pos int32
	t   int32
	off int64
	suf []byte
}

func (cu *cursor) advance(texts [][]byte, starts []int) (bool, error) {
	if cu.next >= cu.end {
		return false, nil
	}
	var p int32
	if cu.rd != nil {
		var le [4]byte
		if _, err := io.ReadFull(cu.rd, le[:]); err != nil {
			return false, err
		}
		p = int32(binary.LittleEndian.Uint32(le[:]))
	} else {
		p = cu.c.rows[cu.next]
	}
	cu.next++
	cu.pos = p
	cu.t, cu.off = locate(starts, cu.c, p)
	cu.suf = texts[cu.t][cu.off:]
	return true, nil
}

// less orders two cursors by their current suffix: raw byte comparison
// with the prefix-is-smaller rule (a suffix that runs out hits its
// terminator, which sorts below every byte), ties — identical remainders —
// by text id (terminators are distinct).
func (cu *cursor) less(o *cursor) bool {
	if c := bytes.Compare(cu.suf, o.suf); c != 0 {
		return c < 0
	}
	return cu.t < o.t
}

// mergeOneSeg k-way-merges one segment's chunk subranges into its disjoint
// slice of the output BWT, collecting doc entries and locate samples in
// row order. Single-chunk segments stream without a heap.
func mergeOneSeg(ctx context.Context, sg *mergeSeg, texts [][]byte, starts []int, chunks []*chunkSA, bwt []byte, l int) (segOut, error) {
	var out segOut
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	var curs []*cursor
	//sxsivet:ignore ctxpoll cursor setup over at most maxChunks (512) chunks, one buffered open each
	for ci, c := range chunks {
		lo, hi := sg.ranges[ci][0], sg.ranges[ci][1]
		if lo >= hi {
			continue
		}
		cu := &cursor{c: c, next: lo, end: hi}
		if c.rows == nil {
			cu.rd = bufio.NewReaderSize(io.NewSectionReader(c.f, lo*4, (hi-lo)*4), spillBufBytes)
		}
		if _, err := cu.advance(texts, starts); err != nil {
			return out, err
		}
		curs = append(curs, cu)
	}
	row := int32(sg.row)
	emit := func(cu *cursor) {
		if cu.off == 0 {
			// The previous symbol is the terminator of the preceding text:
			// byte 0 in the BWT plus the doc entry of the text starting
			// here (the paper's Doc convention).
			bwt[row] = 0
			out.doc = append(out.doc, cu.t)
		} else {
			bwt[row] = texts[cu.t][cu.off-1]
		}
		out.samples = appendSample(out.samples, row, cu.pos, l)
		row++
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
			emit(cu)
			if err := checkPoll(); err != nil {
				return out, err
			}
			ok, err := cu.advance(texts, starts)
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil
			}
		}
	}
	// Binary min-heap over the cursors.
	h := curs
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		cu := h[0]
		emit(cu)
		if err := checkPoll(); err != nil {
			return out, err
		}
		ok, err := cu.advance(texts, starts)
		if err != nil {
			return out, err
		}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	return out, nil
}

func siftDown(h []*cursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].less(h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].less(h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
