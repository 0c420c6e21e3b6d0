package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// windowRequests reads one SLO window's request count as a scrape sees
// it: Refresh, then the drm_slo_window_requests gauge.
func windowRequests(o *serverObs, scope, name string) float64 {
	o.slo.Refresh()
	return o.reg.FloatGaugeVec("drm_slo_window_requests", "", "scope", "name").With(scope, name).Value()
}

// TestMiddlewareOneObservationPerRequest pins the middleware contract:
// one request to a tracked entry route adds exactly one observation to
// each of its status-class counter, latency histogram, endpoint window,
// server window and entry window, and the in-flight gauge returns to 0.
func TestMiddlewareOneObservationPerRequest(t *testing.T) {
	srv, ex := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: usageValues(ex), Count: 1}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}

	o := srv.obs
	const ep = "POST /v1/issue"
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"2xx counter", float64(o.reg.CounterVec("drm_http_requests_total", "", "endpoint", "class").With(ep, "2xx").Value()), 1},
		{"latency histogram", float64(o.reg.HistogramVec("drm_http_request_seconds", "", nil, "endpoint").With(ep).Count()), 1},
		{"endpoint window", windowRequests(o, "endpoint", ep), 1},
		{"server window", windowRequests(o, "server", "all"), 1},
		{"entry window", windowRequests(o, "entry", "corpus"), 1},
		{"in-flight gauge", float64(o.reg.Gauge("drm_http_inflight", "").Value()), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestMiddlewareInflight reads the in-flight gauge from inside a handler
// mounted through the middleware, and again after it returns.
func TestMiddlewareInflight(t *testing.T) {
	o := newServerObs(func() error { return nil })
	inflight := o.reg.Gauge("drm_http_inflight", "")
	var seen int64
	mux := http.NewServeMux()
	o.wrap(mux, "GET /v1/x", func(w http.ResponseWriter, r *http.Request) { seen = inflight.Value() })
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	if seen != 1 {
		t.Errorf("in-flight inside handler = %d, want 1", seen)
	}
	if got := inflight.Value(); got != 0 {
		t.Errorf("in-flight after completion = %d, want 0", got)
	}
}

// TestMiddlewareEntryWindowEveryRoute: in single-corpus mode every entry
// route feeds the "corpus" window, reads as well as writes, as each
// entry's routes do in catalog mode.
func TestMiddlewareEntryWindowEveryRoute(t *testing.T) {
	srv, ex := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	if code := getJSON(t, ts.URL+"/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: usageValues(ex), Count: 1}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	if got := windowRequests(srv.obs, "entry", "corpus"); got != 2 {
		t.Errorf("corpus window = %v requests, want 2", got)
	}
}

// TestMiddlewareUntrackedFeedsNoWindow: probes, replication fetches and
// router-proxied requests are counted in the HTTP metrics but add
// nothing to any SLO window, the server's included. A proxied request
// is counted once, in the windows of the peer that served it.
func TestMiddlewareUntrackedFeedsNoWindow(t *testing.T) {
	srv, _ := testServer(t, engine.ModeOnline)
	leader := httptest.NewServer(srv.routes())
	t.Cleanup(leader.Close)
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/repl/role", "/v1/repl/wal", "/v1/repl/snapshot"} {
		getJSON(t, leader.URL+path, nil)
	}
	noWindows := func(who string, o *serverObs) {
		t.Helper()
		st := o.slo.Refresh()
		for _, w := range append(st.Endpoints, st.Entries...) {
			if w.Requests != 0 {
				t.Errorf("%s: window %s holds %d requests, want 0", who, w.Name, w.Requests)
			}
		}
		if got := windowRequests(o, "server", "all"); got != 0 {
			t.Errorf("%s: server window = %v requests, want 0", who, got)
		}
	}
	noWindows("leader", srv.obs)
	probes := srv.obs.reg.CounterVec("drm_http_requests_total", "", "endpoint", "class").With("GET /v1/healthz", "2xx")
	if got := probes.Value(); got != 1 {
		t.Errorf("healthz 2xx counter = %d, want 1", got)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{Peers: []string{leader.URL}, LocalName: cluster.RoleRouter})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll()
	ro := newServerObs(func() error { return nil })
	router := httptest.NewServer(routerRoutes(ro, rt))
	t.Cleanup(router.Close)
	if code := getJSON(t, router.URL+"/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("proxied stats status = %d", code)
	}
	noWindows("router", ro)
	proxied := ro.reg.CounterVec("drm_http_requests_total", "", "endpoint", "class").With("proxy", "2xx")
	if got := proxied.Value(); got != 1 {
		t.Errorf("router proxy 2xx counter = %d, want 1", got)
	}
	if got := windowRequests(srv.obs, "endpoint", "GET /v1/stats"); got != 1 {
		t.Errorf("leader stats window = %v requests, want 1", got)
	}
}

// requestLines returns the JSON log records with msg "request".
func requestLines(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if line == "" || json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] == "request" {
			out = append(out, rec)
		}
	}
	return out
}

// TestMiddlewareLogRule pins when the request log line is written, with
// tracing at the -trace-sample default (slow=250ms) and with it off: a
// fast success writes none, a 4xx one WARN line and a 5xx one ERROR
// line, and a tracked request at or over the SLO latency threshold one
// INFO line (an untracked one none). Every trace_id on a line names a
// retained trace.
func TestMiddlewareLogRule(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { writeJSON(w, code, struct{}{}) }
	}
	for _, traced := range []bool{true, false} {
		name := "tracing-off"
		if traced {
			name = "tracing-on"
		}
		t.Run(name, func(t *testing.T) {
			oldTracer, oldLogger := tracer, logger
			t.Cleanup(func() { tracer, logger = oldTracer, oldLogger })
			tracer = nil
			if traced {
				policy, _, err := trace.ParsePolicy("slow=250ms")
				if err != nil {
					t.Fatal(err)
				}
				tracer = trace.New(trace.Options{Policy: policy})
			}
			var logBuf syncBuffer
			h, err := obs.NewLogHandler("json", "info", &logBuf)
			if err != nil {
				t.Fatal(err)
			}
			logger = slog.New(trace.LogHandler(h))

			o := newServerObs(func() error { return nil })
			mux := http.NewServeMux()
			o.wrap(mux, "GET /ok", status(http.StatusOK))
			o.wrap(mux, "GET /conflict", status(http.StatusConflict))
			o.wrap(mux, "GET /fail", status(http.StatusInternalServerError))
			lowerLatencyThreshold(t)
			slowObs := newServerObs(func() error { return nil })
			slowMux := http.NewServeMux()
			slowObs.wrap(slowMux, "GET /slow", status(http.StatusOK))
			slowMux.Handle("GET /probe", slowObs.observed("GET /probe", nil, status(http.StatusOK)))

			for _, c := range []struct {
				h      http.Handler
				path   string
				level  string // "" = no line
				status float64
			}{
				{mux, "/ok", "", 0},
				{mux, "/conflict", "WARN", http.StatusConflict},
				{mux, "/fail", "ERROR", http.StatusInternalServerError},
				{slowMux, "/slow", "INFO", http.StatusOK},
				{slowMux, "/probe", "", 0},
			} {
				before := len(requestLines(t, &logBuf))
				c.h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, c.path, nil))
				lines := requestLines(t, &logBuf)[before:]
				if c.level == "" {
					if len(lines) != 0 {
						t.Errorf("GET %s wrote %d request lines, want none: %v", c.path, len(lines), lines)
					}
					continue
				}
				if len(lines) != 1 {
					t.Fatalf("GET %s wrote %d request lines, want 1: %v", c.path, len(lines), lines)
				}
				rec := lines[0]
				if rec["level"] != c.level || rec["status"] != c.status || rec["path"] != c.path {
					t.Errorf("GET %s line = %v, want level %s status %v", c.path, rec, c.level, c.status)
				}
				id, hasID := rec["trace_id"].(string)
				if hasID != traced {
					t.Errorf("GET %s line trace_id = %q, want one iff tracing is on", c.path, id)
				}
				if hasID && tracer.Get(id) == nil {
					t.Errorf("GET %s line names trace %s, which was not retained", c.path, id)
				}
			}
		})
	}
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkStatsRoute serves GET /v1/stats through routes() in process,
// wired as drmserver's defaults wire it: tracing at the -trace-sample
// default (slow=250ms) and a text logger at info, writing here to
// io.Discard. The writer is reused, so allocs/op counts the request
// path's own allocations: mux, middleware and handler.
func BenchmarkStatsRoute(b *testing.B) {
	policy, _, err := trace.ParsePolicy("slow=250ms")
	if err != nil {
		b.Fatal(err)
	}
	h, err := obs.NewLogHandler("text", "info", io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	oldTracer, oldLogger := tracer, logger
	b.Cleanup(func() { tracer, logger = oldTracer, oldLogger })
	tracer = trace.New(trace.Options{Policy: policy})
	logger = slog.New(trace.LogHandler(h))
	srv, _ := testServer(b, engine.ModeOnline)
	routes := srv.routes()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status = 0
		routes.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status = %d", w.status)
		}
	}
}
