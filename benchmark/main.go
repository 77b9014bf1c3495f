// Command benchmark is the repository's yardstick: it serves generated
// corpora through the real HTTP service, drives them with fixed traffic
// mixes, checks every reply against an independent oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ones) named in
// BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int     // least duration of the timed phase
	trace    bool    // report per-layer metrics from a traced replay
	scale    float64 // corpus and operation-count scale; 1 is the recorded size
	work     string  // directory for the generated corpus
	out      string  // directory for trace files
	log      io.Writer

	// perturb, when set, may alter the oracle's answers before the timed
	// phase. Tests use it to prove that a wrong expectation fails the run.
	perturb func([]*opSpec)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. The last line of standard output is its
// JSON encoding.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info map[string]any // printed before the result line, not part of it
}

// minOps is the least number of timed operations at scale 1: with a
// thousand samples the 99th percentile has ten beyond it.
const minOps = 1000

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the corpus, the vocabulary and the operation order")
	flag.IntVar(&cfg.seconds, "seconds", 10, "least duration of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: replay a sample of the operations layer by layer and report per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "corpus size and operation count relative to the recorded run")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory the generated corpus is written under")
	flag.StringVar(&cfg.out, "out", "out", "directory trace-<workload>.json is written to")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.log = os.Stdout

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := run(context.Background(), c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload: set-up passes, oracle, timed closed loop with
// reconciliation, and in trace mode the open loop, the traced replay and
// the layer kernels.
func run(ctx context.Context, cfg config) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 {
		return nil, fmt.Errorf("scale must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	docs := w.docs(cfg.scale)
	res := &result{Metrics: map[string]metric{}, info: map[string]any{
		"workload": w.name, "seed": cfg.seed, "scale": cfg.scale, "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "clients": clients, "go": runtime.Version(),
	}}

	// The operations and their order follow from the seed alone; deriving
	// them belongs to the load generator, so it happens once, ahead of set-up.
	distinct, reps, err := w.ops(cfg.seed, generate(docs, cfg.seed))
	if err != nil {
		return nil, err
	}
	seq := sequence(cfg.seed, reps)

	// Set-up. Each pass starts from the seed and ends with a warm server;
	// the last pass's server is the one measured.
	passes := w.setups
	if cfg.trace {
		passes = 1 // setup_s is not reported from a traced run
	}
	var s *served
	defer func() { s.close() }()
	var times []setupTimes
	for p := 0; p < passes; p++ {
		s.close()
		var st setupTimes
		if s, st, err = setUp(ctx, cfg.work, cfg.seed, docs, distinct, seq); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, st)
	}

	// Oracle: after set-up and outside setup_s.
	t0 := time.Now()
	orc, err := newOracle(s.xml, w.name == "search-serve")
	if err != nil {
		return nil, err
	}
	if err := orc.answer(distinct); err != nil {
		return nil, err
	}
	res.info["oracle_s"] = time.Since(t0).Seconds()
	if cfg.perturb != nil {
		cfg.perturb(distinct)
	}

	// The timed phase issues whole passes of the sequence: the fewest that
	// reach minOps (scaled), and its results are what result_digest covers.
	target := int(math.Ceil(minOps * cfg.scale))
	nOps := (target + len(seq) - 1) / len(seq) * len(seq)
	res.info["distinct_ops"] = len(distinct)
	res.info["pass_ops"] = len(seq)
	res.info["digest_ops"] = nOps

	// Timed phase, tracing off. The oracle's trees are garbage by now.
	runtime.GC()
	debug.FreeOSMemory()
	before, err := scrape(s)
	if err != nil {
		return nil, err
	}
	minTime := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		minTime = 0 // one pass of the sequence: the replay below is what a traced run measures
	}
	loop := closedLoop(s, distinct, seq, nOps, minTime)
	after, err := scrape(s)
	if err != nil {
		return nil, err
	}
	res.Attempted = len(loop.samples)
	res.Failed = loop.failed()
	reportFailures(cfg.log, distinct, loop.samples)
	if err := reconcile(before, after, distinct, loop.samples); err != nil {
		fmt.Fprintf(cfg.log, "FAIL %v\n", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	res.info["result_digest"] = resultDigest(distinct, loop.samples, nOps)
	res.info["timed_ops"] = len(loop.samples)
	res.info["timed_s"] = loop.wall.Seconds()
	res.info["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.info["class_p50_ms"] = classMedians(distinct, loop.samples)
	res.info["p50_classes"] = rankClasses(distinct, loop.samples, 0.45, 0.55)
	res.info["p99_classes"] = rankClasses(distinct, loop.samples, 0.985, 0.995)

	if cfg.trace {
		hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
		if err := traced(ctx, cfg, w, s, distinct, seq, res, float64(hits)/float64(max(1, hits+misses))); err != nil {
			return nil, err
		}
	} else {
		// More opens of the served corpus, after the timed phase: together
		// with the set-up passes' they bracket the run, so a slow spell of
		// the machine that covers one end leaves the lower quartile alone.
		opens := make([]float64, 0, w.setups*openPasses+extraOpens)
		for _, t := range times {
			opens = append(opens, t.opens...)
		}
		for i := 0; i < extraOpens; i++ {
			_, d, err := openOnce(ctx, s.dir, len(s.docs))
			if err != nil {
				return nil, fmt.Errorf("open pass after the timed phase: %w", err)
			}
			opens = append(opens, float64(d))
		}
		res.info["open_passes"] = len(opens)
		res.info["open_pass_ms_quartiles"] = []float64{quantile(opens, 0.25) / 1e6, median(opens) / 1e6, quantile(opens, 0.75) / 1e6}
		endToEnd(res, s, times, opens, loop)
	}
	printReport(cfg.log, res)
	return res, nil
}

// endToEnd fills in the end-to-end metrics.
func endToEnd(res *result, s *served, times []setupTimes, opens []float64, loop loopResult) {
	var setup, build []float64
	for _, t := range times {
		setup = append(setup, t.total.Seconds())
		build = append(build, t.build.Seconds())
	}
	last := times[len(times)-1]
	var lat []float64
	var bytes int64
	good := 0
	for i := range loop.samples {
		smp := &loop.samples[i]
		lat = append(lat, float64(smp.lat)/1e6)
		if smp.err == nil {
			good++
			bytes += int64(smp.bytes)
		}
	}
	wall := loop.wall.Seconds()
	m := res.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	m["build_mb_per_s"] = metric{float64(last.srcBytes) / 1e6 / median(build), "MB/s"}
	m["open_ms_per_doc"] = metric{quantile(opens, 0.25) / 1e6 / float64(len(s.docs)), "ms"}
	m["index_bytes_per_src_byte"] = metric{float64(last.idxBytes) / float64(last.srcBytes), "ratio"}
	m["resident_mb"] = metric{float64(residentBytes(s.coll)) / 1e6, "MB"}
	m["ops_per_s"] = metric{float64(good) / wall, "1/s"}
	m["p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["out_mb_per_s"] = metric{float64(bytes) / 1e6 / wall, "MB/s"}
	m["alloc_kb_per_op"] = metric{float64(loop.allocBytes) / 1e3 / float64(len(loop.samples)), "KB"}
}

// reportFailures prints the first few failed operations with their request.
func reportFailures(w io.Writer, distinct []*opSpec, samples []sample) {
	shown := 0
	for i := range samples {
		if samples[i].err == nil {
			continue
		}
		if shown++; shown > 10 {
			fmt.Fprintf(w, "FAIL ... and more\n")
			return
		}
		op := distinct[samples[i].op]
		fmt.Fprintf(w, "FAIL op %d %s %s %s: %v\n", samples[i].slot, op.class, op.method, op.target, samples[i].err)
	}
}

// classMedians is the median latency of each query class: it shows which
// class owns the percentiles the end-to-end metrics report.
func classMedians(distinct []*opSpec, samples []sample) map[string]float64 {
	by := map[string][]float64{}
	for i := range samples {
		c := distinct[samples[i].op].class
		by[c] = append(by[c], float64(samples[i].lat)/1e6)
	}
	out := map[string]float64{}
	for c, v := range by {
		out[c] = math.Round(median(v)*1000) / 1000
	}
	return out
}

// rankClasses reports which query classes own the operations between two
// ranks of the latency order, as shares: a percentile is only steady when
// the ranks around it belong to one class.
func rankClasses(distinct []*opSpec, samples []sample, lo, hi float64) map[string]float64 {
	byLat := append([]sample(nil), samples...)
	sort.Slice(byLat, func(i, j int) bool { return byLat[i].lat < byLat[j].lat })
	a, b := int(lo*float64(len(byLat))), int(hi*float64(len(byLat)))
	out := map[string]float64{}
	for _, smp := range byLat[a:b] {
		out[distinct[smp.op].class] += 1 / float64(b-a)
	}
	for c, v := range out {
		out[c] = math.Round(v*100) / 100
	}
	return out
}

// printReport writes the run's context as one JSON line and every metric
// by name with its unit, one per line.
func printReport(w io.Writer, res *result) {
	if line, err := json.Marshal(map[string]any{"info": res.info}); err == nil {
		fmt.Fprintf(w, "%s\n", line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
