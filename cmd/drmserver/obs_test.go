package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// promSample matches one Prometheus text-format sample line; the label
// block is greedy because label values may themselves contain '}'.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (NaN|[+-]?Inf|[+-]?[0-9][^ ]*)$`)

// scrape fetches url and parses the exposition into series → value,
// failing the test on any line that is neither a comment nor a valid
// sample.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint covers the acceptance criterion: after a couple of
// issuances the exposition parses, and request counts, validate-equation
// counts, and the latency histogram are all nonzero.
func TestMetricsEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	req := issueRequest{Values: usageValues(ex), Count: 10}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue status = %d", code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/audit", nil); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="2xx"}`]; got != 3 {
		t.Errorf("issue request count = %v, want 3", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="POST /v1/issue"}`]; got != 3 {
		t.Errorf("issue latency observations = %v, want 3", got)
	}
	// Online mode runs Headroom per issuance and the audit runs the full
	// sharded validation, so equations-checked must have moved.
	if got := series[`drm_validate_equations_checked_total`]; got <= 0 {
		t.Errorf("equations checked = %v, want > 0", got)
	}
	if got := series[`drm_issue_total`]; got != 3 {
		t.Errorf("issued counter = %v, want 3", got)
	}
	if got := series[`drm_wal_appends_total`]; got != 3 {
		t.Errorf("wal appends = %v, want 3", got)
	}
	if got := series[`drm_audit_runs_total`]; got != 1 {
		t.Errorf("audit runs = %v, want 1", got)
	}
	if got := series[`drm_http_inflight`]; got != 0 {
		t.Errorf("inflight after drain = %v, want 0", got)
	}
}

// TestMiddlewareStatusClasses checks the middleware buckets non-2xx
// responses correctly and records exactly one observation per request.
func TestMiddlewareStatusClasses(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	// Two OK, one 409 (headroom exhausted), one 400 (broken JSON).
	req := issueRequest{Values: usageValues(ex), Count: 3000}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("drain status = %d", code)
	}
	req.Count = 1
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusConflict {
		t.Fatalf("conflict status = %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/issue", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="2xx"}`]; got != 1 {
		t.Errorf("2xx = %v, want 1", got)
	}
	if got := series[`drm_http_requests_total{endpoint="POST /v1/issue",class="4xx"}`]; got != 2 {
		t.Errorf("4xx = %v, want 2", got)
	}
	if got := series[`drm_http_request_seconds_count{endpoint="POST /v1/issue"}`]; got != 3 {
		t.Errorf("latency observations = %v, want one per request, got %v", got, got)
	}
}

// TestHealthzDrainAware pins satellite 1: healthz flips to 503 the moment
// the drain flag is set, and readyz reports the loaded corpus.
func TestHealthzDrainAware(t *testing.T) {
	srv, _ := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz before drain = %d %v", code, body)
	}
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}
	srv.obs.draining.Store(true)
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", code)
	}
	if body["status"] != "draining" {
		t.Errorf("drain body = %v", body)
	}
	// Readiness is about loadedness, not drain state.
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK {
		t.Errorf("readyz during drain = %d, want 200", code)
	}
}

// TestReadyzCatalog checks readiness in catalog mode.
func TestReadyzCatalog(t *testing.T) {
	ts, _ := newCatalogTestServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}
}

// TestIssueBodyLimit pins satellite 2: an oversized issue body gets a
// structured 413, and the limit does not bite normal requests.
func TestIssueBodyLimit(t *testing.T) {
	old := maxIssueBody
	maxIssueBody = 256
	t.Cleanup(func() { maxIssueBody = old })

	ts, ex := newTestServer(t, engine.ModeOnline)
	// Well-formed JSON that forces the decoder past the cap before any
	// syntax error can preempt the MaxBytesError.
	big := []byte(`{"kind": "` + strings.Repeat("x", 4096) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/issue", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "256") {
		t.Errorf("413 error %q does not state the limit", e.Error)
	}
	// A small request still fits under the lowered cap.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 5}, nil); code != http.StatusOK {
		t.Errorf("small request status = %d", code)
	}
}

// TestConcurrentIssueMetricsAudit is satellite 3's race hammer: catalog
// mode, concurrent issuance, metric scrapes, and audits. Run with -race.
func TestConcurrentIssueMetricsAudit(t *testing.T) {
	ts, ex := newCatalogTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := issueRequest{Values: usageValues(ex), Count: 1}
			for j := 0; j < 10; j++ {
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/c/K/play/issue", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for _, path := range []string{"/metrics", "/v1/c/K/play/audit", "/v1/healthz"} {
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

	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_http_requests_total{endpoint="POST /v1/c/{content}/{perm}/issue",class="2xx"}`]; got != 40 {
		t.Errorf("concurrent issue count = %v, want 40", got)
	}
}
