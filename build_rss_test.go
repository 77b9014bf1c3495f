// Build peak-memory smoke test, gated by SXSI_BENCH_MB like the large-index
// open benchmarks: it builds a corpus of that many MiB with a transient
// memory budget far below what an unbounded suffix sort would need, samples
// the live heap during the build, and fails when the peak exceeds the
// allowance. An ignored budget shows up as a ~18 byte/symbol suffix-sort
// working set (plus retained chunk arrays), which is far outside the bound.
package sxsi

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestBuildPeakRSS(t *testing.T) {
	mb, _ := strconv.Atoi(os.Getenv("SXSI_BENCH_MB"))
	if mb <= 0 {
		t.Skip("set SXSI_BENCH_MB to run the build peak-memory smoke test")
	}
	size := int64(mb) << 20
	budget := size / 4
	data := gen.XMark(23, int(size))

	var baseline runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseline)

	// Sample the live heap while the build runs. ReadMemStats is a brief
	// stop-the-world, so the 10ms period costs little next to a large build.
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapAlloc); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	eng, err := core.BuildContext(context.Background(), data, core.Config{
		BuildProcs:   runtime.NumCPU(),
		MemoryBudget: budget,
		BuildTempDir: t.TempDir(),
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.Count(context.Background(), "//item"); err != nil || n == 0 {
		t.Fatalf("sanity query on bounded build: n=%d err=%v", n, err)
	}

	// The budget bounds the transient build state (suffix-sort working sets,
	// retained chunk arrays, the BWT scratch). On top of it the peak
	// legitimately carries the input document, the parse product, the
	// finished index, and — because HeapAlloc includes floating garbage up
	// to the GOGC factor — roughly a 2x multiplier on the live set. 9x
	// corpus plus 2x budget covers all of that with headroom (measured at
	// 48 MiB: bounded peaks at ~6.7x corpus, unbounded at ~10.8x, so an
	// ignored budget still trips the gate).
	allowed := int64(baseline.HeapAlloc) + 9*size + 2*budget
	if p := peak.Load(); p > allowed {
		t.Fatalf("peak heap %d MiB exceeds allowance %d MiB (corpus %d MiB, budget %d MiB)",
			p>>20, allowed>>20, size>>20, budget>>20)
	} else {
		t.Logf("peak heap %d MiB within allowance %d MiB (corpus %d MiB, budget %d MiB)",
			p>>20, allowed>>20, size>>20, budget>>20)
	}
}
