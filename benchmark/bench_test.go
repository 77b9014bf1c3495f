package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// testScale keeps a whole run — three set-up passes, oracle, timed phase —
// well under a second per workload.
const testScale = 0.02

func testConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	t.Helper()
	dir := t.TempDir()
	return config{workload: workload, seed: seed, seconds: 0, trace: trace, scale: testScale,
		work: filepath.Join(dir, "work"), out: filepath.Join(dir, "out"), log: io.Discard}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	return res
}

// manifest is BENCHMARK.json as far as the tests read it.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames requires the metrics a run printed to be exactly the declared
// ones, name and unit, in both directions.
func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }, limit int) {
	t.Helper()
	if len(want) == 0 || len(want) > limit {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, want 1..%d", what, len(want), limit)
	}
	declared := map[string]string{}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", what, m.Name)
		}
		declared[m.Name] = m.Unit
		if g, ok := got[m.Name]; !ok {
			t.Errorf("%s: declared metric %s was not printed", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s printed in %q, declared in %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: printed metric %s is not declared", what, name)
		}
	}
}

// TestWorkloads runs every workload end to end at a small scale, untraced
// and traced: nothing may fail, the metrics printed must be the ones
// BENCHMARK.json declares, the same seed must reproduce the operation
// sequence and the result digest, another seed must not, and the span trees
// of the traced run must be well formed.
func TestWorkloads(t *testing.T) {
	man := readManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, testConfig(t, w.name, 7, false))
			if !a.Correct || a.Failed != 0 || a.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", a.Correct, a.Attempted, a.Failed)
			}
			checkNames(t, "end_to_end", a.Metrics, man.EndToEnd, 16)
			for name, m := range a.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
				}
			}

			b := mustRun(t, testConfig(t, w.name, 7, false))
			if a.info["result_digest"] != b.info["result_digest"] {
				t.Errorf("same seed, different digests: %v and %v", a.info["result_digest"], b.info["result_digest"])
			}
			c := mustRun(t, testConfig(t, w.name, 8, false))
			if a.info["result_digest"] == c.info["result_digest"] {
				t.Errorf("seeds 7 and 8 gave the same digest %v", a.info["result_digest"])
			}

			cfg := testConfig(t, w.name, 7, true)
			tr := mustRun(t, cfg)
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", tr.Correct, tr.Failed)
			}
			checkNames(t, "per_layer", tr.Metrics, man.PerLayer, 128)
			checkSpans(t, filepath.Join(cfg.out, "trace-"+w.name+".json"))
		})
	}
}

// checkSpans requires every span to lie inside its parent, which must have
// been recorded before it, and every self time to be non-negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i, sp := range file.Spans {
		if sp.ID != i+1 || sp.Parent < 0 || sp.Parent >= sp.ID {
			t.Fatalf("span %d: id %d parent %d", i, sp.ID, sp.Parent)
		}
		if sp.Self < 0 || sp.Dur < 0 || sp.End < sp.Start || sp.Self > sp.Dur {
			t.Errorf("span %d %s: start %d end %d dur %d self %d", sp.ID, sp.Name, sp.Start, sp.End, sp.Dur, sp.Self)
		}
		if sp.Parent != 0 {
			p := file.Spans[sp.Parent-1]
			if sp.Start < p.Start || sp.End > p.End || sp.Op != p.Op {
				t.Errorf("span %d %s [%d,%d] op %d is not inside its parent %s [%d,%d] op %d",
					sp.ID, sp.Name, sp.Start, sp.End, sp.Op, p.Name, p.Start, p.End, p.Op)
			}
		}
	}
}

// TestSequence pins what the seed does and does not decide.
func TestSequence(t *testing.T) {
	reps := []int{3, 1, 4, 1, 5, 9, 2, 6}
	a, b, c := sequence(1, reps), sequence(1, reps), sequence(2, reps)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same sequence")
	}
	count := func(seq []int) []int {
		n := make([]int, len(reps))
		for _, i := range seq {
			n[i]++
		}
		return n
	}
	if !reflect.DeepEqual(count(a), reps) || !reflect.DeepEqual(count(c), reps) {
		t.Errorf("a pass must issue every operation its own number of times: %v %v, want %v", count(a), count(c), reps)
	}
}

// TestOracleCanSayNo perturbs one expected answer of each kind the workload
// has; the run must report failures and an incorrect result. An oracle that
// cannot fail a run proves nothing when it passes one.
func TestOracleCanSayNo(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w.name, 3, false)
			perturbed := map[opKind]bool{}
			cfg.perturb = func(ops []*opSpec) {
				for _, op := range ops {
					if perturbed[op.kind] {
						continue
					}
					perturbed[op.kind] = true
					switch op.kind {
					case kindCount:
						op.want.count++
					case kindExists:
						op.want.exists = !op.want.exists
					case kindStream:
						op.want.body = append([]byte("x"), op.want.body...)
					case kindBatch:
						op.want.nodes[0] = append(op.want.nodes[0], 1)
					case kindCountAll:
						for name := range op.want.counts {
							op.want.counts[name]++
							break
						}
					case kindSearch:
						op.want.search.candidates++
					}
				}
			}
			res := mustRun(t, cfg)
			if res.Correct || res.Failed < len(perturbed) {
				t.Errorf("%d wrong expectations: correct=%v failed=%d", len(perturbed), res.Correct, res.Failed)
			}
		})
	}
}

// TestReconcileCanSayNo: a server whose counters disagree with what the
// clients sent must fail reconciliation.
func TestReconcileCanSayNo(t *testing.T) {
	op := countOp("count/x", "d", "//a")
	op.want.queries = 1
	samples := []sample{{op: 0}, {op: 0}}
	agree := accounting{queries: 2, queryHist: 2}
	if err := reconcile(accounting{}, agree, []*opSpec{op}, samples); err != nil {
		t.Errorf("matching accounts: %v", err)
	}
	for _, bad := range []accounting{
		{queries: 3, queryHist: 2}, {queries: 2, queryHist: 1}, {queries: 2, queryHist: 2, queryErrs: 1},
		{queries: 2, queryHist: 2, searches: 1}, {queries: 2, queryHist: 2, rejected: 1},
	} {
		if err := reconcile(accounting{}, bad, []*opSpec{op}, samples); err == nil {
			t.Errorf("accounts %+v reconciled", bad)
		}
	}
}
