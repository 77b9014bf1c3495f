package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bitvec"
	"repro/internal/build"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/gen"
	"repro/internal/rlfm"
	"repro/internal/sais"
	"repro/internal/search"
	"repro/internal/wavelet"
	"repro/internal/xmlparse"
)

// The layer kernels are tight loops over the public functions of one layer
// at a time, on the structures of the workload's own first document, with
// arguments the seed chooses. They are what an optimisation of that layer
// moves first; the README says which end-to-end metric should follow.

// sink keeps the compiler from discarding a kernel's calls.
var sink int

// kernelCalls is the number of calls of a per-call kernel at scale 1.
const kernelCalls = 1 << 20

// argMask indexes the precomputed argument tables.
const argMask = 1<<14 - 1

// perCall times n calls of fn and returns the ns each took.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// timeOf returns how long fn took.
func timeOf(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// medianOf runs fn n times and returns the median duration in ns.
func medianOf(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(timeOf(fn))
	}
	return median(d)
}

type nopHandler struct{}

func (nopHandler) StartElement(string, []xmlparse.Attr) error { return nil }
func (nopHandler) EndElement(string) error                    { return nil }
func (nopHandler) Text([]byte) error                          { return nil }

func layerKernels(ctx context.Context, cfg config, s *served, distinct []*opSpec, m map[string]metric) error {
	r := gen.NewRNG(cfg.seed ^ 0x1a7e5)
	calls := max(1<<14, int(kernelCalls*min(1, cfg.scale)))
	name := s.docs[0].name
	xml := s.xml[name]
	mb := float64(len(xml)) / 1e6
	eng, _ := s.coll.Get(name)
	d := eng.Doc
	path := filepath.Join(s.dir, name+".sxsi")
	ns := func(name string, v float64) { m[name] = metric{v, "ns"} }

	// Argument tables: random nodes, their tag symbols, random positions.
	nodes := make([]int, argMask+1)
	syms := make([]int32, argMask+1)
	for i := range nodes {
		nodes[i] = d.NodeAtPreorder(r.Intn(d.NumNodes()))
		syms[i] = d.Tag.Access(nodes[i])
	}

	// bp and bitvec, on the document's parentheses.
	par := d.Par
	ns("bp.findclose_ns", perCall(calls, func(i int) { sink += par.FindClose(nodes[i&argMask]) }))
	ns("bp.enclose_ns", perCall(calls, func(i int) { sink += par.Enclose(nodes[i&argMask]) }))
	ns("bp.nextsibling_ns", perCall(calls, func(i int) { sink += par.NextSibling(nodes[i&argMask]) }))
	bits := bitvec.New(par.Len())
	for i := 0; i < par.Len(); i++ {
		if par.IsOpen(i) {
			bits.Set(i)
		}
	}
	bits.Build()
	ns("bitvec.rank1_ns", perCall(calls, func(i int) { sink += bits.Rank1(nodes[i&argMask]) }))
	ones := bits.Ones()
	ns("bitvec.select1_ns", perCall(calls, func(i int) { sink += bits.Select1(nodes[i&argMask] % ones) }))

	// tags.
	tag := d.Tag
	ns("tags.access_ns", perCall(calls, func(i int) { sink += int(tag.Access(nodes[i&argMask])) }))
	ns("tags.rank_ns", perCall(calls, func(i int) { sink += tag.Rank(syms[i&argMask], nodes[(i+1)&argMask]) }))
	ns("tags.select_ns", perCall(calls, func(i int) {
		sym := syms[i&argMask]
		sink += tag.Select(sym, nodes[(i+1)&argMask]%tag.Count(sym))
	}))

	// xmltree.
	ns("xmltree.tagged_desc_ns", perCall(calls, func(i int) { sink += d.TaggedDesc(nodes[i&argMask], syms[(i+1)&argMask]/2) }))
	var textBytes int
	textNs := perCall(calls, func(i int) { textBytes += len(d.Text(nodes[i&argMask] % d.NumTexts())) })
	m["xmltree.text_ns_per_byte"] = metric{textNs * float64(calls) / float64(max(1, textBytes)), "ns"}
	w := &countWriter{}
	sub := timeOf(func() { _ = d.GetSubtree(d.Root(), w) }) // a countWriter cannot fail
	m["xmltree.subtree_mb_per_s"] = metric{float64(w.n) / 1e6 / sub.Seconds(), "MB/s"}
	treeBytes, _, _ := d.SizeInBytes()
	m["xmltree.tree_bytes_per_node"] = metric{float64(treeBytes) / float64(d.NumNodes()), "bytes"}

	// The document's texts: one slice each, and joined.
	texts := make([][]byte, d.NumTexts())
	var joined []byte
	for id := range texts {
		texts[id] = d.Text(id)
		joined = append(append(joined, texts[id]...), '\n')
	}
	tb := float64(len(joined))

	// fmindex, on the document's own index, with literals from its texts.
	fm := d.FM
	sample := joined[:min(len(joined), sampleBytes)]
	vocab := spread(byOccurrence(words(sample), sample), vocabSize)
	pats := make([][]byte, len(vocab))
	patBytes := 0
	for i, w := range vocab {
		pats[i] = []byte(w)
		patBytes += len(w)
	}
	rounds := max(1, calls/8/patBytes)
	step := timeOf(func() {
		for k := 0; k < rounds; k++ {
			for _, p := range pats {
				sp, ep := fm.BackwardSearch(p)
				sink += ep - sp
			}
		}
	})
	ns("fmindex.step_ns", float64(step)/float64(rounds*patBytes))
	var contains []float64
	var locateNs, occs float64
	for _, p := range pats {
		g := fm.GlobalCount(p)
		if g == 0 || g > plainCutoff {
			continue
		}
		contains = append(contains, float64(timeOf(func() { sink += len(fm.Contains(p)) })))
		locateNs += float64(timeOf(func() { sink += len(fm.Locate(p)) }))
		occs += float64(g)
	}
	m["fmindex.contains_us"] = metric{median(contains) / 1e3, "us"}
	ns("fmindex.locate_ns_per_occ", ratio(locateNs, occs))
	var extracted int
	extracts := max(64, calls>>10)
	extractNs := perCall(extracts, func(i int) { extracted += len(fm.Extract(nodes[i&argMask] % d.NumTexts())) })
	ns("fmindex.extract_ns_per_byte", extractNs*float64(extracts)/float64(max(1, extracted)))
	m["fmindex.bytes_per_text_byte"] = metric{float64(fm.SizeInBytes()) / tb, "ratio"}
	var err error
	fmBuild := timeOf(func() { _, err = fmindex.NewCtx(ctx, texts, fmindex.Options{}) })
	if err != nil {
		return err
	}
	ns("fmindex.build_ns_per_byte", float64(fmBuild)/tb)

	// sais, wavelet and rlfm on the text bytes.
	var sa []int32
	saTime := timeOf(func() { sa, err = sais.ComputeBytes(joined) })
	if err != nil {
		return err
	}
	sink += len(sa)
	ns("sais.ns_per_byte", float64(saTime)/tb)
	var wt *wavelet.Tree
	wtTime := timeOf(func() { wt = wavelet.New(joined) })
	ns("wavelet.build_ns_per_byte", float64(wtTime)/tb)
	m["wavelet.bits_per_symbol"] = metric{float64(wt.SizeInBytes()) * 8 / tb, "bits"}
	ns("wavelet.rank_ns", perCall(calls, func(i int) {
		sink += wt.Rank(joined[nodes[i&argMask]%len(joined)], nodes[(i+1)&argMask]%len(joined))
	}))
	ns("wavelet.access_ns", perCall(calls, func(i int) { sink += int(wt.Access(nodes[i&argMask] % len(joined))) }))
	bio := gen.BioXML(cfg.seed, scaled(256<<10, cfg.scale))
	bioSA, err := sais.ComputeBytes(bio)
	if err != nil {
		return err
	}
	bwt := make([]byte, len(bio))
	for i, p := range bioSA {
		bwt[i] = bio[(int(p)+len(bio)-1)%len(bio)]
	}
	rl := rlfm.New(bwt)
	ns("rlfm.rank_ns", perCall(calls, func(i int) {
		sink += rl.Rank(bwt[nodes[i&argMask]%len(bwt)], nodes[(i+1)&argMask]%len(bwt))
	}))

	// The build side: parse, pipeline, save, the two ways of opening.
	parse := timeOf(func() { err = xmlparse.Parse(xml, nopHandler{}) })
	if err != nil {
		return err
	}
	m["xmlparse.mb_per_s"] = metric{mb / parse.Seconds(), "MB/s"}
	for _, b := range []struct {
		name  string
		procs int
	}{{"build.document_ms_per_mb", 0}, {"build.p1_ms_per_mb", 1}} {
		t := timeOf(func() { _, err = build.Document(ctx, xml, build.Options{Procs: b.procs}) })
		if err != nil {
			return err
		}
		m[b.name] = metric{float64(t) / 1e6 / mb, "ms"}
	}
	var saved int64
	save := timeOf(func() { saved, err = eng.Save(io.Discard) })
	if err != nil {
		return err
	}
	m["core.save_mb_per_s"] = metric{float64(saved) / 1e6 / save.Seconds(), "MB/s"}
	open := func(oc core.Config) func() {
		return func() {
			e, oerr := core.OpenFile(path, oc)
			if oerr != nil {
				err = oerr
				return
			}
			e.Close()
		}
	}
	m["core.open_mapped_us"] = metric{medianOf(5, open(core.Config{})) / 1e3, "us"}
	m["core.load_copy_ms"] = metric{medianOf(3, open(core.Config{NoMmap: true})) / 1e6, "ms"}
	if err != nil {
		return err
	}

	// search: the posting tier's share of open time and of memory.
	post := timeOf(func() { sink += search.BuildDoc(d).NumTerms() })
	m["search.build_doc_ms_per_mb"] = metric{float64(post) / 1e6 / mb, "ms"}
	var postings, src int64
	for _, doc := range s.docs {
		if e, ok := s.coll.Get(doc.name); ok {
			postings += int64(e.Postings().SizeInBytes())
		}
		src += int64(len(s.xml[doc.name]))
	}
	m["search.postings_bytes_per_src_byte"] = metric{float64(postings) / float64(src), "ratio"}

	// collection: opening without the search tier, reloading, and the
	// compiled-query cache on a key it holds and on keys it has never seen.
	perDoc := float64(len(s.docs))
	var c2 *collection.Collection
	m["collection.open_nosearch_ms_per_doc"] = metric{medianOf(3, func() {
		c2 = collection.New(collection.Config{DisableSearch: true})
		if _, lerr := c2.LoadDir(ctx, s.dir); lerr != nil {
			err = lerr
		}
	}) / 1e6 / perDoc, "ms"}
	if err != nil {
		return err
	}
	m["collection.reload_noop_us"] = metric{medianOf(5, func() { c2.Reload(ctx) }) / 1e3, "us"}
	touched := time.Now().Add(time.Second)
	for _, doc := range s.docs {
		if err := os.Chtimes(filepath.Join(s.dir, doc.name+".sxsi"), touched, touched); err != nil {
			return err
		}
	}
	reload := timeOf(func() {
		if rep := c2.Reload(ctx); len(rep.Reloaded) != len(s.docs) {
			err = os.ErrInvalid
		}
	})
	if err != nil {
		return err
	}
	m["collection.reload_changed_ms_per_doc"] = metric{float64(reload) / 1e6 / perDoc, "ms"}
	var miss []float64
	var warm docQuery // the first key compiled, cached from then on
	seen := map[docQuery]bool{}
	for _, op := range distinct {
		for _, dq := range xpathsOf(op, name) {
			if seen[dq] {
				continue
			}
			if len(seen) == 0 {
				warm = dq
			}
			seen[dq] = true
			miss = append(miss, float64(timeOf(func() { _, err = c2.Compiled(dq.doc, dq.query) })))
			if err != nil {
				return err
			}
		}
	}
	m["collection.compiled_miss_us"] = metric{median(miss) / 1e3, "us"}
	ns("collection.compiled_hit_ns", perCall(max(1024, calls>>4), func(int) { _, err = c2.Compiled(warm.doc, warm.query) }))
	return err
}

// xpathsOf returns the (document, XPath) pairs an operation evaluates; a
// fan-out over every document is represented by the first one.
func xpathsOf(op *opSpec, first string) []docQuery {
	switch op.kind {
	case kindCount, kindExists, kindStream:
		return []docQuery{{op.doc, op.query}}
	case kindBatch:
		return op.batch
	case kindCountAll:
		return []docQuery{{first, op.query}}
	case kindSearch:
		if op.query != "" {
			return []docQuery{{first, op.query}}
		}
	}
	return nil
}
