package service

// Admission-control tests: with MaxConcurrent evaluations running and
// MaxQueue requests waiting, the next request is turned away with 429 and
// a Retry-After hint; queued requests complete once a slot frees. The
// blocking evaluation is deterministic — a custom predicate parks on a
// channel — so nothing here races a timer.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/xpath"
)

func TestAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 16)
	opts := xpath.Options{
		ForceStrategy: xpath.StrategyBottomUp,
		CustomMatchSets: map[string]func(string) []int32{
			"blockwait": func(string) []int32 {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-block
				return []int32{0}
			},
		},
	}
	c := collection.New(collection.Config{Workers: 4, CacheSize: -1})
	eng, err := core.BuildContext(context.Background(), []byte(testXML), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Add("lib", eng.WithQueryOptions(opts))
	ts := httptest.NewServer(NewWithConfig(c, Config{MaxConcurrent: 1, MaxQueue: 1}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})

	blockingURL := ts.URL + "/count?doc=lib&q=" + escape("//title[blockwait(., 'x')]")
	type reply struct {
		code int
		body string
	}
	fire := func() chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Get(blockingURL)
			if err != nil {
				ch <- reply{0, err.Error()}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ch <- reply{resp.StatusCode, string(body)}
		}()
		return ch
	}

	// A takes the only evaluation slot and parks inside the evaluator.
	aCh := fire()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never entered evaluation")
	}

	// B fills the queue. Queueing happens before evaluation, so poll the
	// admission gauge through /metrics until B is provably waiting.
	bCh := fire()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, mbody := get(t, ts.URL+"/metrics")
		if strings.Contains(string(mbody), "sxsi_admission_queued 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue gauge never reached 1:\n%s", mbody)
		}
		time.Sleep(time.Millisecond)
	}

	// C finds slots and queue full: 429 with a Retry-After hint. /metrics
	// itself is not admission-gated (the poll above already proved that).
	resp, err := http.Get(blockingURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body: %s", body)
	}

	// Freeing the evaluator drains A, then B, both successfully.
	close(block)
	for _, ch := range []chan reply{aCh, bCh} {
		select {
		case r := <-ch:
			if r.code != http.StatusOK {
				t.Fatalf("blocked request finished with %d %s", r.code, r.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked request never finished")
		}
	}
	if code, mbody := get(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(mbody), "sxsi_admission_rejected_total 1") ||
		!strings.Contains(string(mbody), "sxsi_admission_in_flight 0") {
		t.Fatalf("post-drain metrics:\n%s", mbody)
	}
}
