package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/trace"
)

// logger is the process-wide structured logger. run() replaces it
// according to -log-format/-log-level (wrapped in trace.LogHandler so
// request-scoped records carry a trace_id); handlers and serve() log
// through it.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// tracer is the process-wide request tracer; nil when -trace-sample is
// "off". A nil tracer starts no spans, so every instrumentation site
// below is a no-op and /debug/traces answers 404.
var tracer *trace.Tracer

// maxIssueBody caps POST issue request bodies; oversized requests get a
// structured 413. run() overrides it via -max-body.
var maxIssueBody int64 = 1 << 20

// sloObjectives are the service-level objectives every server
// constructed in this process evaluates; run() overrides them via
// -slo-latency / -slo-latency-target / -slo-availability.
var sloObjectives = slo.DefaultObjectives()

// telemetryInterval paces the runtime/SLO sampling ticker serve()
// starts; zero disables it (handler-level tests and scrape-on-demand
// still work). run() overrides it via -telemetry-interval.
var telemetryInterval time.Duration

// serverObs bundles the observability state both server modes share: the
// metrics registry with all engine-layer hooks wired, the HTTP
// middleware, the SLO service (sliding windows, burn rates, heavy
// hitters), the runtime telemetry collector, and health state.
// Constructing it per server (rather than per process) keeps the test
// servers self-contained; the package-level hooks simply point at the
// most recently constructed registry.
type serverObs struct {
	reg     *obs.Registry
	httpm   *obs.HTTPMetrics
	slo     *slo.Service
	runtime *obs.Runtime
	start   time.Time
	// draining flips when graceful shutdown begins so load balancers
	// stop routing to this instance while in-flight requests finish.
	draining atomic.Bool
	// ready reports whether the corpus/catalog is loaded and servable.
	ready func() error
	// info summarises the serving state for /v1/status; set by the mode
	// constructor after the corpus/catalog is loaded.
	info func() serviceStatus
	// walBacklog sums the fsync backlog over the mode's logs (nil for
	// the router, which has none).
	walBacklog func() int64
	// roleInfo answers the cluster role probe (GET /v1/repl/role); nil
	// defaults to a ready standalone, which is also what pre-cluster
	// peers effectively report (routers treat a 404 probe the same way).
	roleInfo func() cluster.RoleInfo
	// repl supplies the replication block of /v1/status (nil omits it).
	repl func() *replicationStatus
}

func newServerObs(ready func() error) *serverObs {
	reg := obs.NewRegistry()
	engine.InstrumentAll(reg)
	o := &serverObs{
		reg:   reg,
		httpm: obs.NewHTTPMetrics(reg),
		slo:   slo.NewService(reg, sloObjectives, slo.TrackerConfig{}),
		start: time.Now(),
		ready: ready,
	}
	// Metric→trace exemplars: traced requests stamp their trace ID on
	// the latency bucket they land in.
	o.httpm.ExemplarID = trace.IDFromContext
	// Heavy-hitter attribution follows the InstrumentAll discipline: the
	// package hook points at the most recently constructed server.
	engine.Hitters = o.slo.Hitters()
	o.runtime = obs.NewRuntime(reg, func() int64 {
		if o.walBacklog == nil {
			return 0
		}
		return o.walBacklog()
	})
	return o
}

// wrap mounts h on mux instrumented under the route pattern: a root
// trace span covering the whole request, SLO window/burn tracking, then
// request counts by status class and a latency histogram.
func (o *serverObs) wrap(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, traced(pattern, o.sloObserved(o.slo.Endpoint(pattern), o.httpm.Wrap(pattern, h))))
}

// wrapUntracked is wrap without the SLO layer — health and readiness
// probes answer 503 by design (drain, warm-up) and must not burn the
// availability budget.
func (o *serverObs) wrapUntracked(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, traced(pattern, o.httpm.Wrap(pattern, h)))
}

// sloObserved feeds the endpoint's sliding window and burn ring: 5xx
// responses burn the availability budget, requests at or over the
// latency threshold burn the latency budget and have their traces
// force-retained so the exemplars pointing at them stay resolvable in
// /debug/traces.
func (o *serverObs) sloObserved(t *slo.Tracker, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &traceStatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		d := time.Since(start)
		t.Observe(d, status >= 500)
		if thr := o.slo.LatencyThreshold(); thr > 0 && d >= thr {
			trace.SpanFromContext(r.Context()).Retain()
		}
	})
}

// entryObserved feeds one catalog entry's sliding window, inside the
// endpoint instrumentation.
func entryObserved(t *slo.Tracker, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &traceStatusWriter{ResponseWriter: w}
		next(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		t.Observe(time.Since(start), status >= 500)
	}
}

// drainGuard refuses requests with a typed 503 once graceful shutdown
// has begun, so operators polling /v1/slo or /v1/headroom see an
// explicit "unavailable" instead of racing the listener close.
func (o *serverObs) drainGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if o.draining.Load() {
			writeError(r.Context(), w,
				drmerr.New(drmerr.KindUnavailable, "drmserver", "server draining, retry another instance"))
			return
		}
		h(w, r)
	}
}

// startTelemetry runs the sampling ticker: runtime gauges plus SLO
// gauge refresh every interval. The returned stop joins the goroutine.
func (o *serverObs) startTelemetry(every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				o.runtime.Sample()
				o.slo.Refresh()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// traceStatusWriter records the response status for the root span and
// the request log line.
type traceStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *traceStatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *traceStatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// traced starts a root span named by the route pattern around next, so
// every layer below (engine, core, vtree, logstore, wal) hangs its spans
// off this request's trace. An incoming traceparent header (a request
// forwarded by the router, or a follower's replication fetch) is
// extracted first: the root then continues the upstream trace ID
// instead of minting one, which is what lets /v1/cluster/traces/{id}
// merge the per-process fragments. An empty pattern (the router's
// catch-all proxy route) names the root "METHOD /path" per request, so
// router roots line up with the leader roots they forward to. After the
// handler returns it marks error status (>= 400 — tail-sampling then
// always retains the trace), ends the root, and emits the request log
// line with the span-carrying context, so the line and any error body
// share one trace_id. With tracing off it is a pass-through.
func traced(pattern string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			next.ServeHTTP(w, r)
			return
		}
		name := pattern
		if name == "" {
			name = r.Method + " " + r.URL.Path
		}
		var ctx context.Context
		var sp *trace.Span
		if rp, ok := trace.Extract(r.Header); ok {
			ctx, sp = tracer.RootRemote(r.Context(), name, rp)
		} else {
			ctx, sp = tracer.Root(r.Context(), name)
		}
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &traceStatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		sp.SetInt("status", int64(status))
		if status >= 400 {
			sp.Fail(fmt.Errorf("HTTP %d", status))
		}
		sp.End()
		lvl := slog.LevelInfo
		switch {
		case status >= 500:
			lvl = slog.LevelError
		case status >= 400:
			lvl = slog.LevelWarn
		}
		logger.LogAttrs(ctx, lvl, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status))
	})
}

// mountCommon adds the routes both server modes share: the Prometheus/
// OpenMetrics exposition (SLO gauges refreshed per scrape), the unified
// status pane, the machine-readable SLO state, the retained-trace ring,
// drain-aware liveness, and readiness. The trace routes dereference the
// package tracer per request so they work (as 404s) when tracing is off.
func (o *serverObs) mountCommon(mux *http.ServeMux) {
	mux.Handle("GET /metrics", o.metricsHandler())
	mux.Handle("GET /debug/traces", traceHandler())
	mux.Handle("GET /debug/traces/{id}", traceHandler())
	o.wrap(mux, "GET /v1/status", o.handleStatus)
	o.wrap(mux, "GET /v1/slo", o.drainGuard(o.handleSLO))
	o.wrapUntracked(mux, "GET /v1/healthz", o.handleHealthz)
	o.wrapUntracked(mux, "GET /v1/readyz", o.handleReadyz)
	o.wrapUntracked(mux, "GET /v1/repl/role", o.handleRole)
}

// handleRole is the cluster role probe routers and operators poll: the
// instance's role, readiness, durable sequence, and — for followers —
// replication lag and leader.
func (o *serverObs) handleRole(w http.ResponseWriter, r *http.Request) {
	if o.roleInfo != nil {
		writeJSON(w, http.StatusOK, o.roleInfo())
		return
	}
	writeJSON(w, http.StatusOK, cluster.RoleInfo{
		Role:  cluster.RoleStandalone,
		Ready: o.ready() == nil && !o.draining.Load(),
	})
}

// metricsHandler refreshes the drm_slo_* gauges before every scrape so
// burn rates and windowed quantiles are current, then defers to the
// registry's content-negotiating exposition handler.
func (o *serverObs) metricsHandler() http.Handler {
	inner := o.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.slo.Refresh()
		inner.ServeHTTP(w, r)
	})
}

// traceHandler serves the package tracer's ring; nil-safe (404 when
// tracing is off).
func traceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tracer.Handler().ServeHTTP(w, r)
	})
}

// handleHealthz is liveness: 200 while serving, 503 once graceful
// shutdown has begun (the drain window).
func (o *serverObs) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if o.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 once the corpus/catalog is loaded —
// and, on a follower, once replication lag is inside -max-lag. Errors
// in the drmerr taxonomy (a lagging replica's KindReplicaLag, say)
// answer with the typed {error, kind} body so orchestrators can
// distinguish "still catching up" from "corpus missing".
func (o *serverObs) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := o.ready(); err != nil {
		if drmerr.KindOf(err) != drmerr.KindUnknown {
			writeJSON(w, http.StatusServiceUnavailable, body(r.Context(), err))
			return
		}
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unready", "reason": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
