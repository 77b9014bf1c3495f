package service

// Tests for the exists endpoint, per-request deadlines and batch
// cancellation. The batch cancellation test is deterministic: a custom
// predicate blocks the evaluation until the server-side request context is
// actually cancelled (no timers racing the evaluator), so the worker is
// guaranteed to observe the cancellation at its next poll.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/xpath"
)

func TestExistsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out existsBody
	code, body := get(t, ts.URL+"/exists?doc=lib&q="+escape("//book"))
	if code != http.StatusOK {
		t.Fatalf("exists: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Exists || out.Doc != "lib" {
		t.Fatalf("exists body: %s", body)
	}
	code, body = get(t, ts.URL+"/exists?doc=lib&q="+escape("//missing"))
	if code != http.StatusOK {
		t.Fatalf("exists absent: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Exists {
		t.Fatalf("exists absent body: %s", body)
	}
	if code, _ := get(t, ts.URL+"/exists?doc=nope&q="+escape("//x")); code != http.StatusNotFound {
		t.Fatalf("exists unknown doc: %d", code)
	}
}

// TestRequestTimeout pins the deadline plumbing end to end: a collection
// with a 1ns per-request budget produces a context whose deadline has
// already passed when evaluation starts, the evaluator's upfront check
// fails with context.DeadlineExceeded, and the handler maps it to 504.
func TestRequestTimeout(t *testing.T) {
	c := collection.New(collection.Config{Workers: 2, RequestTimeout: time.Nanosecond})
	eng, err := core.BuildContext(context.Background(), []byte(testXML), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Add("lib", eng)
	ts := httptest.NewServer(New(c))
	t.Cleanup(ts.Close)
	code, body := get(t, ts.URL+"/count?doc=lib&q="+escape("//book"))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("count under 1ns budget: %d %s, want 504", code, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("error body: %s", body)
	}
}

// TestBatchCancellation cancels a POST /query batch mid-evaluation through
// the client's request context. The custom predicate first hands the
// server-side request context to the test and blocks until that context is
// cancelled, so by the time the bottom-up climb starts polling, the
// cancellation has provably propagated client → connection → request
// context → evaluator.
func TestBatchCancellation(t *testing.T) {
	c := collection.New(collection.Config{Workers: 2, CacheSize: -1})
	serverCtxCh := make(chan context.Context, 1)
	started := make(chan struct{})
	var sctx context.Context
	opts := xpath.Options{
		ForceStrategy: xpath.StrategyBottomUp,
		CustomMatchSets: map[string]func(string) []int32{
			"cancelwait": func(string) []int32 {
				if sctx == nil {
					sctx = <-serverCtxCh
					close(started)
				}
				<-sctx.Done()
				return []int32{0, 1, 2}
			},
		},
	}
	eng, err := core.BuildContext(context.Background(), []byte(testXML), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Add("lib", eng.WithQueryOptions(opts))
	inner := New(c)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverCtxCh <- r.Context()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	body := `{"requests":[{"doc":"lib","query":"//title[cancelwait(., 'x')]","mode":"count"}]}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client Do succeeded despite cancellation")
	}
	// The worker observed the cancellation: the request is accounted as a
	// cancellation — client behavior, kept out of the error counter — not
	// as a success or an error (and the server did not wedge — Stats would
	// block forever on a deadlocked worker holding the engine lock).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Queries == 1 && st.Canceled == 1 && st.Errors == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want Queries=1 Canceled=1 Errors=0", st)
		}
		time.Sleep(time.Millisecond)
	}
}
