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

// wrap mounts h on mux under the route pattern behind the request
// middleware, feeding the pattern's endpoint SLO window. Routes that
// must not burn the SLO budget mount with observed and a nil window.
func (o *serverObs) wrap(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, o.observed(pattern, o.slo.Endpoint(pattern), h))
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

// observeWriter is the one status-capturing ResponseWriter. The
// middleware reads the status from it; an entry route's resolver sets
// on it the catalog entry whose SLO window the request feeds.
type observeWriter struct {
	http.ResponseWriter
	status int
	entry  *slo.Tracker
}

func (w *observeWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *observeWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observeEntry names the catalog entry window t as the one this request
// feeds; the middleware observes it with the endpoint's. Outside the
// middleware it does nothing.
func observeEntry(w http.ResponseWriter, t *slo.Tracker) {
	if ow, ok := w.(*observeWriter); ok {
		ow.entry = t
	}
}

// observed is the one request middleware. It times the request and
// captures its status once, then feeds that (duration, status) to the
// root span, the endpoint's HTTP metrics (with the trace ID as the
// latency exemplar), the endpoint SLO window (nil for routes that must
// not burn the budget: probes, replication, the router's proxy), the
// entry window the route's resolver set (observeEntry), and, only for a
// failed request or a slow one on a tracked route, the request log
// line. A failed root is marked failed and a slow tracked one retained,
// so the sampler keeps both and any trace_id on a logged line names a
// retained trace.
//
// An incoming traceparent header (a router forward, a follower's
// replication fetch) is continued, which lets /v1/cluster/traces/{id}
// merge the per-process fragments. An empty pattern (the router's
// catch-all proxy) names the root "METHOD /path" per request, so router
// roots line up with the leader roots they forward to, and labels the
// metrics "proxy".
func (o *serverObs) observed(pattern string, endpoint *slo.Tracker, next http.HandlerFunc) http.Handler {
	label := pattern
	if label == "" {
		label = "proxy"
	}
	metrics := o.httpm.Endpoint(label)
	var slowAt time.Duration // 0: no request on this route counts as slow
	if endpoint != nil {
		slowAt = o.slo.LatencyThreshold()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sp *trace.Span
		if tracer != nil {
			r, sp = startRoot(r, pattern)
		}
		ow := &observeWriter{ResponseWriter: w}
		metrics.Begin()
		start := time.Now()
		next(ow, r)
		d := time.Since(start)
		status := ow.status
		if status == 0 {
			status = http.StatusOK
		}
		metrics.Done(d, status, sp.TraceID())
		endpoint.Observe(d, status >= 500)
		ow.entry.Observe(d, status >= 500)
		slow := slowAt > 0 && d >= slowAt
		if sp != nil {
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			sp.SetInt("status", int64(status))
			if status >= 400 {
				sp.Fail(fmt.Errorf("HTTP %d", status))
			}
			if slow {
				sp.Retain()
			}
			sp.End()
		}
		lvl := slog.LevelInfo
		switch {
		case status >= 500:
			lvl = slog.LevelError
		case status >= 400:
			lvl = slog.LevelWarn
		case !slow:
			return
		}
		logger.LogAttrs(r.Context(), lvl, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status))
	})
}

// startRoot starts the request's root span on the package tracer and
// returns the request carrying it.
func startRoot(r *http.Request, pattern string) (*http.Request, *trace.Span) {
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
	return r.WithContext(ctx), sp
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
	// Probes answer 503 by design (drain, warm-up) and must not burn
	// the availability budget.
	mux.Handle("GET /v1/healthz", o.observed("GET /v1/healthz", nil, o.handleHealthz))
	mux.Handle("GET /v1/readyz", o.observed("GET /v1/readyz", nil, o.handleReadyz))
	mux.Handle("GET /v1/repl/role", o.observed("GET /v1/repl/role", nil, o.handleRole))
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
