package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one issued operation as the client saw it.
type sample struct {
	slot  int           // position in the issue order
	op    int           // index into the distinct operations
	lat   time.Duration // closed loop: send → last byte; open loop: due time → last byte
	late  time.Duration // open loop: how long after its due time the request was sent
	bytes int           // response body size
	err   error         // transport, status or oracle failure
	fail  [sha256.Size]byte
}

// loopResult is the outcome of one load phase.
type loopResult struct {
	samples    []sample // in issue order
	wall       time.Duration
	allocBytes uint64 // runtime.MemStats.TotalAlloc delta, process-wide
}

func (r *loopResult) failed() int {
	n := 0
	for i := range r.samples {
		if r.samples[i].err != nil {
			n++
		}
	}
	return n
}

// issue sends one operation and checks the reply against the oracle.
func issue(cl *client, distinct []*opSpec, slot, op int) sample {
	body, lat, err := cl.timed(distinct[op])
	if err == nil {
		err = verify(distinct[op], body)
	}
	s := sample{slot: slot, op: op, lat: lat, bytes: len(body), err: err}
	if err != nil {
		s.fail = sha256.Sum256(append([]byte(err.Error()+"\x00"), body...))
	}
	return s
}

// runClients starts `clients` goroutines that each take the next slot of
// the issue order until next reports the phase over, and gathers what they
// saw. before, when not nil, runs ahead of each send and may delay it.
func runClients(s *served, distinct []*opSpec, next func() (slot, op int, ok bool), before func(slot int) (due time.Time)) loopResult {
	var ms0, ms1 runtime.MemStats
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s)
			for {
				slot, op, ok := next()
				if !ok {
					return
				}
				var due, sent time.Time
				if before != nil {
					due, sent = before(slot), time.Now()
				}
				smp := issue(cl, distinct, slot, op)
				if before != nil {
					// Open loop: the request was due at a fixed time; count the
					// wait a late send imposed on it.
					smp.late = sent.Sub(due)
					smp.lat += smp.late
				}
				perClient[c] = append(perClient[c], smp)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, ss := range perClient {
		res.samples = append(res.samples, ss...)
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].slot < res.samples[j].slot })
	return res
}

// closedLoop replays seq (cyclically) with `clients` callers that each wait
// for their reply before sending again. It issues at least minOps
// operations and keeps going until minTime has passed.
func closedLoop(s *served, distinct []*opSpec, seq []int, minOps int, minTime time.Duration) loopResult {
	var n atomic.Int64
	start := time.Now()
	return runClients(s, distinct, func() (int, int, bool) {
		slot := int(n.Add(1) - 1)
		if slot >= minOps && time.Since(start) >= minTime {
			return 0, 0, false
		}
		return slot, seq[slot%len(seq)], true
	}, nil)
}

// openLoop sends the first n operations of seq on a fixed schedule of rate
// operations per second, whether or not earlier replies have arrived (up to
// the two connections there are). Latency counts from the due time.
func openLoop(s *served, distinct []*opSpec, seq []int, n int, rate float64) loopResult {
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	return runClients(s, distinct, func() (int, int, bool) {
		slot := int(next.Add(1) - 1)
		if slot >= n {
			return 0, 0, false
		}
		return slot, seq[slot%len(seq)], true
	}, func(slot int) time.Time {
		due := start.Add(time.Duration(float64(slot) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		return due
	})
}

// resultDigest hashes the results of the first n issued operations in issue
// order: a verified operation contributes the oracle's canonical answer
// (which the reply was just shown to equal), a failed one what was seen.
func resultDigest(distinct []*opSpec, samples []sample, n int) string {
	h := sha256.New()
	for i := 0; i < n && i < len(samples); i++ {
		if samples[i].err != nil {
			h.Write(samples[i].fail[:])
		} else {
			h.Write(distinct[samples[i].op].want.digest[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// accounting is the server's own view of the work it did.
type accounting struct {
	queries, queryErrs, queryHist    int64
	searches, searchErrs, searchHist int64
	rejected                         int64
	cacheHits, cacheMisses           int64
}

// scrape reads GET /metrics and checks it against Collection.Stats(): the
// two are views of the same counters and must agree while nothing runs.
func scrape(s *served) (accounting, error) {
	var a accounting
	body, err := newClient(s).do(&opSpec{method: "GET", target: "/metrics"})
	if err != nil {
		return a, fmt.Errorf("scrape /metrics: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, n := line[:sp], int64(v)
		switch {
		case name == "sxsi_queries_total":
			a.queries = n
		case name == "sxsi_query_errors_total":
			a.queryErrs = n
		case name == "sxsi_search_total":
			a.searches = n
		case name == "sxsi_search_errors_total":
			a.searchErrs = n
		case name == "sxsi_admission_rejected_total":
			a.rejected = n
		case name == "sxsi_cache_hits_total":
			a.cacheHits = n
		case name == "sxsi_cache_misses_total":
			a.cacheMisses = n
		case name == "sxsi_search_duration_seconds_count":
			a.searchHist = n
		case strings.HasPrefix(name, "sxsi_query_duration_seconds_count{"):
			a.queryHist += n
		}
	}
	st := s.coll.Stats()
	if st.Queries != a.queries || st.Errors != a.queryErrs || st.Searches != a.searches || st.SearchErrs != a.searchErrs {
		return a, fmt.Errorf("/metrics and Collection.Stats() disagree: %+v vs %+v", a, st)
	}
	return a, nil
}

// reconcile checks the server's accounting of a load phase against what
// the clients sent: every evaluation counted once, in the counters and in
// the latency histograms alike, and no error of any kind.
func reconcile(before, after accounting, distinct []*opSpec, samples []sample) error {
	var queries, searches int64
	for i := range samples {
		op := distinct[samples[i].op]
		queries += op.want.queries
		if op.kind == kindSearch {
			searches++
		}
	}
	d := accounting{
		queries: after.queries - before.queries, queryErrs: after.queryErrs - before.queryErrs, queryHist: after.queryHist - before.queryHist,
		searches: after.searches - before.searches, searchErrs: after.searchErrs - before.searchErrs, searchHist: after.searchHist - before.searchHist,
		rejected: after.rejected - before.rejected,
	}
	var bad []string
	check := func(name string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s moved by %d, clients account for %d", name, got, want))
		}
	}
	check("sxsi_queries_total", d.queries, queries)
	check("sxsi_query_duration_seconds_count", d.queryHist, queries)
	check("sxsi_search_total", d.searches, searches)
	check("sxsi_search_duration_seconds_count", d.searchHist, searches)
	check("sxsi_query_errors_total", d.queryErrs, 0)
	check("sxsi_search_errors_total", d.searchErrs, 0)
	check("sxsi_admission_rejected_total", d.rejected, 0)
	if bad != nil {
		return fmt.Errorf("reconciliation: %s", strings.Join(bad, "; "))
	}
	return nil
}

// median returns the middle value (the lower one of an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the smallest value with at least a share q of the
// values at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
