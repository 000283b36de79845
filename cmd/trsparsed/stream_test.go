package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
)

func streamTestServer(t *testing.T, opts engine.Options) (*httptest.Server, string) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 8
	}
	if opts.ShardThreshold == 0 {
		opts.ShardThreshold = 400
	}
	ts := httptest.NewServer(newServer(engine.New(opts)).handler())
	t.Cleanup(ts.Close)
	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(gen.Grid2D(40, 40, 1)), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sparsify status %d", resp.StatusCode)
	}
	return ts, sp.Key
}

func doReq(t *testing.T, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp
}

// TestV2StreamLifecycle: open → synchronous push → stats → close over
// HTTP, with the updated artifact solvable by key.
func TestV2StreamLifecycle(t *testing.T) {
	ts, key := streamTestServer(t, engine.Options{})

	var open streamOpenResponse
	if resp := postJSON(t, ts.URL+"/v2/stream", streamOpenRequest{BaseKey: key}, &open); resp.StatusCode != http.StatusOK {
		t.Fatalf("open status %d", resp.StatusCode)
	}
	if open.ID == "" || open.BaseKey != key || open.Staleness <= 0 || open.QueueDepth <= 0 {
		t.Fatalf("open response: %+v", open)
	}

	// Synchronous push: ?wait=1 returns the rebuild's reuse report.
	var wr streamWaitResponse
	if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID+"?wait=1", updateRequest{
		Set: [][3]float64{{0, 1, 5}},
	}, &wr); resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}
	if wr.Generation != 1 || wr.Key == key || wr.Key != wr.Update.Key {
		t.Fatalf("wait response: %+v", wr)
	}
	if !wr.Update.StitchLocalized || !wr.Update.LGPatched || !wr.Update.LPPatched {
		t.Fatalf("fast path incomplete over HTTP: %+v", wr.Update)
	}
	if wr.Reuse == nil || !wr.Reuse.Incremental || wr.Reuse.ClustersReused == 0 {
		t.Fatalf("reuse block: %+v", wr.Reuse)
	}

	// Asynchronous push: 202 with a generation.
	var pr streamPushResponse
	if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID, updateRequest{
		Set: [][3]float64{{1, 2, 3}},
	}, &pr); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async push status %d", resp.StatusCode)
	}
	if pr.Generation != 2 {
		t.Fatalf("generation = %d, want 2", pr.Generation)
	}

	// Session stats converge once the async rebuild lands. PendingPushes
	// drops to 0 when the drain starts the rebuild, not when it finishes,
	// so wait for the second update itself, against a deadline.
	var ss engine.StreamStats
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp := doReq(t, http.MethodGet, ts.URL+"/v2/stream/"+open.ID, nil, &ss); resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		if ss.Updates >= 2 && ss.PendingPushes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async rebuild did not land: %+v", ss)
		}
	}
	if ss.Pushes != 2 || ss.PendingPushes != 0 || ss.Failed != "" {
		t.Fatalf("session stats: %+v", ss)
	}

	// The streamed artifact solves by key.
	b := make([]float64, 1600)
	b[0], b[1599] = 1, -1
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve", solveRequest{Key: ss.CurrentKey, B: b}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if !sol.Converged {
		t.Fatalf("solve did not converge (relres %g)", sol.RelRes)
	}

	// /v2/stats carries the aggregate and per-session stream blocks.
	var st statsResponse
	doReq(t, http.MethodGet, ts.URL+"/v2/stats", nil, &st)
	if st.StreamSessions != 1 || st.StreamUpdates < 2 || len(st.Streams) != 1 {
		t.Fatalf("server stream stats: sessions=%d updates=%d detail=%d",
			st.StreamSessions, st.StreamUpdates, len(st.Streams))
	}
	if st.StreamP50US <= 0 {
		t.Fatalf("stream_p50_latency_us = %g, want > 0", st.StreamP50US)
	}

	// Close; the id is gone afterwards.
	if resp := doReq(t, http.MethodDelete, ts.URL+"/v2/stream/"+open.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	var er errorResponse
	if resp := doReq(t, http.MethodGet, ts.URL+"/v2/stream/"+open.ID, nil, &er); resp.StatusCode != http.StatusNotFound || er.Code != "unknown_stream" {
		t.Fatalf("stats after close: status %d code %q", resp.StatusCode, er.Code)
	}
}

// TestV2StreamErrorTaxonomy: each stream failure mode maps to its
// documented (status, code) pair.
func TestV2StreamErrorTaxonomy(t *testing.T) {
	ts, key := streamTestServer(t, engine.Options{StreamMaxSessions: 1, StreamStaleness: 1, StreamQueueDepth: 2})

	var er errorResponse
	if resp := postJSON(t, ts.URL+"/v2/stream", streamOpenRequest{BaseKey: "g9-9-0000000000000000"}, &er); resp.StatusCode != http.StatusNotFound || er.Code != "unknown_key" {
		t.Fatalf("bogus base key: status %d code %q", resp.StatusCode, er.Code)
	}
	if resp := postJSON(t, ts.URL+"/v2/stream", streamOpenRequest{}, &er); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing base key: status %d", resp.StatusCode)
	}

	var open streamOpenResponse
	if resp := postJSON(t, ts.URL+"/v2/stream", streamOpenRequest{BaseKey: key}, &open); resp.StatusCode != http.StatusOK {
		t.Fatalf("open status %d", resp.StatusCode)
	}

	// Session cap: the second open is refused with 503 stream_limit.
	if resp := postJSON(t, ts.URL+"/v2/stream", streamOpenRequest{BaseKey: key}, &er); resp.StatusCode != http.StatusServiceUnavailable || er.Code != "stream_limit" {
		t.Fatalf("session cap: status %d code %q", resp.StatusCode, er.Code)
	}

	// Bad deltas: 400 bad_delta, session unharmed.
	for i, req := range []updateRequest{
		{Set: [][3]float64{{0, 0, 1}}},      // self-loop
		{Set: [][3]float64{{0, 999999, 1}}}, // out of range
		{Set: [][3]float64{{0, 1, -2}}},     // non-positive weight
		{Remove: [][2]float64{{0, 99}}},     // absent edge
	} {
		if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID, req, &er); resp.StatusCode != http.StatusBadRequest || er.Code != "bad_delta" {
			t.Fatalf("bad delta %d: status %d code %q", i, resp.StatusCode, er.Code)
		}
	}
	if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID, updateRequest{}, &er); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delta: status %d", resp.StatusCode)
	}

	// Queue depth 2: a 3-edit push is refused with 429 backpressure.
	if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID, updateRequest{
		Set: [][3]float64{{0, 1, 2}, {1, 2, 2}, {2, 3, 2}},
	}, &er); resp.StatusCode != http.StatusTooManyRequests || er.Code != "backpressure" {
		t.Fatalf("queue depth: status %d code %q", resp.StatusCode, er.Code)
	}

	// Unknown stream id on every per-session route.
	for _, m := range []string{http.MethodGet, http.MethodDelete} {
		if resp := doReq(t, m, ts.URL+"/v2/stream/nope", nil, &er); resp.StatusCode != http.StatusNotFound || er.Code != "unknown_stream" {
			t.Fatalf("%s unknown id: status %d code %q", m, resp.StatusCode, er.Code)
		}
	}
	if resp := postJSON(t, ts.URL+"/v2/stream/nope", updateRequest{Set: [][3]float64{{0, 1, 2}}}, &er); resp.StatusCode != http.StatusNotFound || er.Code != "unknown_stream" {
		t.Fatalf("push unknown id: status %d code %q", resp.StatusCode, er.Code)
	}

	// Close → 409 stream_closed on a subsequent push.
	if resp := doReq(t, http.MethodDelete, ts.URL+"/v2/stream/"+open.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	// The id is deregistered by Close, so the push 404s; a disabled
	// engine surfaces the closed/limit pair instead.
	if resp := postJSON(t, ts.URL+"/v2/stream/"+open.ID, updateRequest{Set: [][3]float64{{0, 1, 2}}}, &er); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("push after close: status %d code %q", resp.StatusCode, er.Code)
	}
}
