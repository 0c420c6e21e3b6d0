package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// syncBuffer is a concurrency-safe log sink: request log lines are
// emitted from server handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// installTestTracer points the package tracer and logger at
// test-controlled instances ("slow=0": retain everything) and restores
// them on cleanup.
func installTestTracer(t *testing.T) (*trace.Tracer, *syncBuffer) {
	t.Helper()
	oldTracer, oldLogger := tracer, logger
	tr := trace.New(trace.Options{Capacity: 256})
	var logBuf syncBuffer
	h, err := obs.NewLogHandler("json", "info", &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	tracer = tr
	logger = slog.New(trace.LogHandler(h))
	t.Cleanup(func() { tracer, logger = oldTracer, oldLogger })
	return tr, &logBuf
}

// spanTreeReaches walks parent links from a span named name up to the
// root, proving the span is attached to the request's trace (not
// orphaned).
func spanTreeReaches(rec *trace.TraceRecord, name string) bool {
	byID := map[uint64]trace.SpanRecord{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	for _, s := range rec.Spans {
		if s.Name != name {
			continue
		}
		cur, hops := s, 0
		for cur.Parent != 0 && hops < len(rec.Spans)+1 {
			p, ok := byID[cur.Parent]
			if !ok {
				return false
			}
			cur, hops = p, hops+1
		}
		if cur.ID == 1 {
			return true
		}
	}
	return false
}

// TestTracedIssueEndToEnd is the acceptance-criteria walk: under
// slow=0 sampling a WAL-backed issue produces a retained trace whose
// span tree reaches wal.append; a failing issue yields the same
// trace_id in the slog request line and the JSON error body; and the
// retained ring exports valid Chrome Trace Event JSON.
func TestTracedIssueEndToEnd(t *testing.T) {
	tr, logBuf := installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOnline)

	// A successful issue: its trace must reach the WAL append (and the
	// FsyncAlways policy's fsync wait under it).
	req := issueRequest{Values: usageValues(ex), Count: 800}
	var ok issueResponse
	if code := postJSON(t, ts.URL+"/v1/issue", req, &ok); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}

	// A failing issue (aggregate headroom exhausted): 409 with the
	// trace_id in the body.
	req.Count = 1 << 40
	var e errorBody
	code := postJSON(t, ts.URL+"/v1/issue", req, &e)
	if code != http.StatusConflict {
		t.Fatalf("over-budget issue status = %d, want 409", code)
	}
	if e.TraceID == "" {
		t.Fatalf("error body carries no trace_id: %+v", e)
	}

	if got := tr.Sampled(); got != 2 {
		t.Fatalf("sampled = %d, want 2 (slow=0 retains everything)", got)
	}

	// The successful trace reaches wal.append → wal.fsync.
	var issueTrace *trace.TraceRecord
	for _, rec := range tr.Snapshot() {
		if rec.ID != e.TraceID {
			issueTrace = rec
		}
	}
	if issueTrace == nil {
		t.Fatal("successful issue trace not retained")
	}
	for _, want := range []string{"engine.issue", "engine.instance", "engine.headroom", "wal.append", "wal.fsync"} {
		if !spanTreeReaches(issueTrace, want) {
			t.Errorf("span %q missing or detached from root in %+v", want, issueTrace.Spans)
		}
	}

	// The failing trace is marked as an error and its ID matches both
	// the error body and a request log line.
	failTrace := tr.Get(e.TraceID)
	if failTrace == nil {
		t.Fatal("failing issue trace not retained")
	}
	if !failTrace.Error {
		t.Error("failing issue trace not marked as error")
	}
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == "request" && rec["trace_id"] == e.TraceID {
			logged = true
			if rec["status"] != float64(http.StatusConflict) {
				t.Errorf("request log line status = %v, want 409", rec["status"])
			}
		}
	}
	if !logged {
		t.Errorf("no request log line with trace_id %s:\n%s", e.TraceID, logBuf.String())
	}

	// /debug/traces index lists both; per-trace chrome export validates.
	var idx struct {
		Traces []trace.TraceSummary `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &idx); code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", code)
	}
	if len(idx.Traces) != 2 {
		t.Fatalf("index lists %d traces, want 2", len(idx.Traces))
	}
	resp, err := http.Get(ts.URL + "/debug/traces/" + e.TraceID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := trace.DecodeChrome(resp.Body)
	if err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("chrome export has no duration events")
	}
}

// TestTracedRequestsConcurrentHammer runs concurrent traced issues
// (meant for -race) and verifies no trace was lost and every span's
// parent resolves inside its own trace.
func TestTracedRequestsConcurrentHammer(t *testing.T) {
	tr, _ := installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOnline)

	const clients = 8
	const perClient = 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := issueRequest{Values: usageValues(ex), Count: 1}
				postJSON(t, ts.URL+"/v1/issue", req, nil)
			}
		}()
	}
	wg.Wait()

	if got := tr.Sampled(); got != clients*perClient {
		t.Fatalf("sampled = %d, want %d", got, clients*perClient)
	}
	for _, sum := range tr.Traces() {
		rec := tr.Get(sum.ID)
		if rec == nil {
			t.Fatalf("trace %s listed but not fetchable", sum.ID)
		}
		seen := map[uint64]bool{}
		for _, s := range rec.Spans {
			if seen[s.ID] {
				t.Fatalf("trace %s: duplicate span id %d", rec.ID, s.ID)
			}
			seen[s.ID] = true
		}
		roots := 0
		for _, s := range rec.Spans {
			if s.Parent == 0 {
				roots++
				continue
			}
			if !seen[s.Parent] {
				t.Fatalf("trace %s: span %d (%s) parent %d unresolved", rec.ID, s.ID, s.Name, s.Parent)
			}
		}
		if roots != 1 {
			t.Fatalf("trace %s has %d roots", rec.ID, roots)
		}
		if !spanTreeReaches(rec, "wal.append") {
			t.Fatalf("trace %s never reached wal.append", rec.ID)
		}
	}
}

// TestTracingDisabledNoSpans proves the nil-tracer path: no spans, no
// retained traces, /debug/traces 404s, and error bodies carry no
// trace_id.
func TestTracingDisabledNoSpans(t *testing.T) {
	oldTracer := tracer
	tracer = nil
	t.Cleanup(func() { tracer = oldTracer })
	ts, ex := newTestServer(t, engine.ModeOnline)

	req := issueRequest{Values: usageValues(ex), Count: 1 << 40}
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/issue", req, &e); code != http.StatusConflict {
		t.Fatalf("issue status = %d, want 409", code)
	}
	if e.TraceID != "" {
		t.Errorf("trace_id %q in body with tracing off", e.TraceID)
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces status = %d, want 404 with tracing off", resp.StatusCode)
	}
}

// TestTraceSlowPolicyDropsFast proves tail-sampling end-to-end: with an
// unreachable slow threshold, clean requests are dropped (counted, not
// retained) while error requests are always kept.
func TestTraceSlowPolicyDropsFast(t *testing.T) {
	oldTracer, oldLogger := tracer, logger
	tr := trace.New(trace.Options{Capacity: 16, Policy: trace.Policy{Slow: 1 << 40}})
	tracer = tr
	var logBuf syncBuffer
	h, err := obs.NewLogHandler("json", "info", &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	logger = slog.New(trace.LogHandler(h))
	t.Cleanup(func() { tracer, logger = oldTracer, oldLogger })
	ts, ex := newTestServer(t, engine.ModeOnline)

	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: usageValues(ex), Count: 1}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	if tr.Sampled() != 0 || tr.Dropped() != 1 {
		t.Fatalf("fast clean request: sampled=%d dropped=%d, want 0/1", tr.Sampled(), tr.Dropped())
	}
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: usageValues(ex), Count: 1 << 40}, &e); code != http.StatusConflict {
		t.Fatalf("issue status = %d, want 409", code)
	}
	if tr.Sampled() != 1 {
		t.Fatalf("error request not retained: sampled=%d", tr.Sampled())
	}
	if tr.Get(e.TraceID) == nil {
		t.Fatalf("error trace %s not in ring", e.TraceID)
	}
}

// TestMiddlewareExtractsTraceparent: a request arriving with a valid
// traceparent header (as the router stamps on forwards) continues the
// upstream trace — the server's root adopts the upstream trace ID and
// records the remote parent — while a garbage header falls back to a
// locally minted root.
func TestMiddlewareExtractsTraceparent(t *testing.T) {
	tr, _ := installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOnline)

	const upstreamID = "0123456789abcdef"
	const upstreamSpan = "00000000000000aa"
	body, err := json.Marshal(issueRequest{Values: usageValues(ex), Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/issue", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-0000000000000000"+upstreamID+"-"+upstreamSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("issue status = %d", resp.StatusCode)
	}

	rec := tr.Get(upstreamID)
	if rec == nil {
		t.Fatalf("trace %s not retained under the upstream id", upstreamID)
	}
	if !rec.Remote || rec.RemoteParent != upstreamSpan {
		t.Fatalf("record remote=%v remote_parent=%q, want true/%s", rec.Remote, rec.RemoteParent, upstreamSpan)
	}
	if !spanTreeReaches(rec, "wal.append") {
		t.Fatalf("remote-rooted trace never reached wal.append: %+v", rec.Spans)
	}

	// A malformed header must not break the request or adopt garbage.
	req2, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/issue", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(trace.Header, "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("issue with bad header status = %d", resp2.StatusCode)
	}
	var local *trace.TraceRecord
	for _, r := range tr.Snapshot() {
		if r.ID != upstreamID {
			local = r
		}
	}
	if local == nil || local.Remote {
		t.Fatalf("malformed header did not fall back to a local root: %+v", local)
	}
}
