package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/slo"
	"repro/internal/trace"
)

// lowerLatencyThreshold drops the latency SLO threshold to 1ns for the
// servers built inside the test, so every request counts as slow: its
// trace is force-retained and its exemplar passes the /v1/status filter.
func lowerLatencyThreshold(t *testing.T) {
	t.Helper()
	old := sloObjectives
	sloObjectives.LatencyThreshold = time.Nanosecond
	t.Cleanup(func() { sloObjectives = old })
}

// TestStatusEndpoint pins the unified operator pane: after real traffic,
// every block of /v1/status is populated, and — the acceptance
// criterion — each exemplar's trace URL resolves to a live entry in
// /debug/traces.
func TestStatusEndpoint(t *testing.T) {
	lowerLatencyThreshold(t)
	installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOnline)

	req := issueRequest{Values: usageValues(ex), Count: 10}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue status = %d", code)
		}
	}

	var st statusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Service.Name != "drmserver" || st.Service.Mode != "online" {
		t.Errorf("service = %+v", st.Service)
	}
	if st.Service.Licenses != 5 || st.Service.Groups != 2 || st.Service.LogRecords != 3 {
		t.Errorf("service corpus shape = %+v, want 5 licenses, 2 groups, 3 log records", st.Service)
	}
	if st.Service.UptimeSeconds <= 0 || st.Service.Draining {
		t.Errorf("service uptime/drain = %+v", st.Service)
	}

	if len(st.SLO.Objectives) != 2 {
		t.Fatalf("objectives = %d, want availability + latency", len(st.SLO.Objectives))
	}
	var issueScope *slo.ScopeWindow
	for i := range st.SLO.Endpoints {
		if st.SLO.Endpoints[i].Name == "POST /v1/issue" {
			issueScope = &st.SLO.Endpoints[i]
		}
	}
	if issueScope == nil || issueScope.Requests != 3 {
		t.Errorf("issue endpoint window = %+v", issueScope)
	}
	if len(st.SLO.Entries) != 1 || st.SLO.Entries[0].Name != "corpus" || st.SLO.Entries[0].Requests != 3 {
		t.Errorf("entry windows = %+v, want corpus ×3", st.SLO.Entries)
	}

	if len(st.HeavyHitters.Entries.ByRequests) == 0 {
		t.Error("heavy hitters empty after issuance traffic")
	} else if got := st.HeavyHitters.Entries.ByRequests[0].Weight; got != 3 {
		t.Errorf("top entry weight = %d, want 3", got)
	}
	if len(st.HeavyHitters.Groups.ByRequests) == 0 {
		t.Error("group heavy hitters empty after issuance traffic")
	}

	if st.Runtime.Goroutines < 1 || st.Runtime.HeapAllocBytes <= 0 {
		t.Errorf("runtime sample = %+v", st.Runtime)
	}
	if !st.Traces.Enabled || st.Traces.Retained == 0 {
		t.Errorf("trace ring = %+v, want enabled with retained traces", st.Traces)
	}

	// Exemplars: present (threshold 1ns marks everything slow), and every
	// trace link must dereference.
	if len(st.Exemplars) == 0 {
		t.Fatal("no exemplars in /v1/status after traced traffic")
	}
	scopes := map[string]bool{}
	for _, e := range st.Exemplars {
		scopes[e.Metric] = true
		if e.TraceID == "" || e.TraceURL != "/debug/traces/"+e.TraceID {
			t.Fatalf("malformed exemplar %+v", e)
		}
		resp, err := http.Get(ts.URL + e.TraceURL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("exemplar trace %s does not resolve: status %d", e.TraceURL, resp.StatusCode)
		}
	}
	if !scopes["drm_http_request_seconds"] || !scopes["drm_engine_issue_seconds"] {
		t.Errorf("exemplar metrics = %v, want both HTTP and engine histograms", scopes)
	}
}

// TestStatusExemplarsOmitDroppedTraces pins the no-dangling-link
// contract under a realistic sampling policy (slow-only, nothing
// retained by default): untracked endpoints like /v1/readyz stamp
// exemplars but their traces are policy-dropped, so /v1/status must
// omit them — while SLO-wrapped endpoints stay force-retained and
// listed.
func TestStatusExemplarsOmitDroppedTraces(t *testing.T) {
	lowerLatencyThreshold(t)
	oldTracer := tracer
	tracer = trace.New(trace.Options{Capacity: 256, Policy: trace.Policy{Slow: time.Hour}})
	t.Cleanup(func() { tracer = oldTracer })
	ts, ex := newTestServer(t, engine.ModeOnline)

	// An untracked endpoint: exemplar recorded, trace dropped.
	if code := getJSON(t, ts.URL+"/v1/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz status = %d", code)
	}
	// An SLO-wrapped endpoint: over the (1ns) threshold, force-retained.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 10}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}

	var st statusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var sawIssue bool
	for _, e := range st.Exemplars {
		if e.Scope == "GET /v1/readyz" {
			t.Errorf("dangling exemplar listed for untracked endpoint: %+v", e)
		}
		if e.Scope == "POST /v1/issue" {
			sawIssue = true
		}
		resp, err := http.Get(ts.URL + e.TraceURL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("exemplar trace %s does not resolve: status %d", e.TraceURL, resp.StatusCode)
		}
	}
	if !sawIssue {
		t.Error("force-retained issue exemplar missing from /v1/status")
	}
}

// TestStatusTextFormat checks the human-readable rendering of the same
// pane.
func TestStatusTextFormat(t *testing.T) {
	lowerLatencyThreshold(t)
	installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOnline)
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 10}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/status?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"drmserver — mode online",
		"SLO objectives",
		"availability",
		"latency",
		"Heavy hitters",
		"Runtime:",
		"Traces: enabled true",
		"/debug/traces/",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text pane missing %q:\n%s", want, body)
		}
	}
}

// TestSLOEndpointSchema pins the machine-readable SLO surface: both
// objectives, the four burn horizons, both alert rules, and the windowed
// endpoint summaries.
func TestSLOEndpointSchema(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 10}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	var st slo.Status
	if code := getJSON(t, ts.URL+"/v1/slo", &st); code != http.StatusOK {
		t.Fatalf("slo status = %d", code)
	}
	names := map[string]bool{}
	for _, o := range st.Objectives {
		names[o.Name] = true
		windows := map[string]bool{}
		for _, w := range o.Windows {
			windows[w.Window] = true
			if w.BurnRate < 0 {
				t.Errorf("%s %s burn rate = %v", o.Name, w.Window, w.BurnRate)
			}
		}
		for _, h := range []string{"5m", "30m", "1h", "6h"} {
			if !windows[h] {
				t.Errorf("%s missing burn window %s (have %v)", o.Name, h, windows)
			}
		}
		sev := map[string]bool{}
		for _, a := range o.Alerts {
			sev[a.Severity] = true
			if a.Firing {
				t.Errorf("%s alert %s firing on a healthy server", o.Name, a.Severity)
			}
		}
		if !sev["page"] || !sev["ticket"] {
			t.Errorf("%s alerts = %v, want page + ticket", o.Name, sev)
		}
		if o.BudgetRemaining > 1 || o.BudgetRemaining < 0 {
			t.Errorf("%s budget remaining = %v on a healthy server", o.Name, o.BudgetRemaining)
		}
	}
	if !names["availability"] || !names["latency"] {
		t.Fatalf("objective names = %v", names)
	}
	if len(st.Endpoints) == 0 {
		t.Error("no endpoint windows in /v1/slo")
	}
}

// TestCatalogUnknownEntryError pins the typed 404 body on the per-entry
// observability routes.
func TestCatalogUnknownEntryError(t *testing.T) {
	ts, _ := newCatalogTestServer(t)
	for _, path := range []string{
		"/v1/c/NOPE/play/headroom",
		"/v1/c/K/copy/audit",
	} {
		var e errorBody
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, code)
		}
		if e.Kind != "not_found" || e.Error == "" {
			t.Errorf("GET %s body = %+v, want kind not_found", path, e)
		}
	}
}

// TestDrainGuard503: once graceful shutdown begins, pollable operator
// endpoints answer a typed 503 — but /v1/status keeps serving so the
// drain itself can be watched.
func TestDrainGuard503(t *testing.T) {
	srv, _ := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Before drain both answer 200.
	if code := getJSON(t, ts.URL+"/v1/slo", nil); code != http.StatusOK {
		t.Fatalf("pre-drain /v1/slo = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/headroom", nil); code != http.StatusOK {
		t.Fatalf("pre-drain /v1/headroom = %d", code)
	}

	srv.obs.draining.Store(true)
	for _, path := range []string{"/v1/slo", "/v1/headroom"} {
		var e errorBody
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusServiceUnavailable {
			t.Errorf("drained GET %s status = %d, want 503", path, code)
		}
		if e.Kind != "unavailable" {
			t.Errorf("drained GET %s kind = %q, want unavailable", path, e.Kind)
		}
	}
	var st statusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("drained /v1/status = %d, want 200", code)
	}
	if !st.Service.Draining {
		t.Error("status pane does not report draining")
	}
}

// TestConcurrentScrapeHammer drives issuance while hammering every
// telemetry surface — Prometheus and OpenMetrics expositions, the status
// pane, and /v1/slo — so the race detector vets the sliding windows,
// burn rings, exemplar pointers, and top-K sketches end to end.
func TestConcurrentScrapeHammer(t *testing.T) {
	lowerLatencyThreshold(t)
	installTestTracer(t)
	ts, ex := newTestServer(t, engine.ModeOffline)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := issueRequest{Values: usageValues(ex), Count: 1}
			for j := 0; j < 10; j++ {
				if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
					t.Errorf("issue status = %d", code)
					return
				}
			}
		}()
	}
	for _, path := range []string{
		"/metrics",
		"/metrics?format=openmetrics",
		"/v1/status",
		"/v1/status?format=text",
		"/v1/slo",
	} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
				}
			}(path)
		}
	}
	wg.Wait()

	// The scrape after the dust settles must still parse and agree with
	// the request count.
	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="2xx"}`]; got != 30 {
		t.Errorf("issue count after hammer = %v, want 30", got)
	}
	if got := series[`drm_slo_window_requests{scope="endpoint",name="POST /v1/issue"}`]; got != 30 {
		t.Errorf("slo window count after hammer = %v, want 30", got)
	}
}
