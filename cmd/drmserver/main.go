// Command drmserver exposes one distributor's license corpus as an HTTP
// validation service: consumers request issuances, the server runs
// instance validation (R-tree containment) and — in online mode —
// aggregate validation (equation headroom), logging every accepted
// issuance; auditors fetch offline validation reports.
//
// Usage:
//
//	drmserver -corpus corpus.json -log issued.wal -addr :8080 -mode online
//	drmserver -catalog ./catalog-dir -addr :8080 -mode online
//
// The issuance log is a WAL directory (internal/wal), created when
// absent. A JSONL log is refused at startup, untouched, with the
// drmaudit -migrate-wal command that converts it.
//
// Single-corpus endpoints:
//
//	GET  /v1/corpus  → the corpus document (as written by drmgen)
//	GET  /v1/groups  → overlap grouping and theoretical gain
//	POST /v1/issue   → {"values":[{"lo":..,"hi":..}|{"set":[..]}, ...],
//	                    "count": 25, "kind": "usage", "ttl_seconds": 3600}
//	POST /v1/revoke  → {"values": [...], "count": 10} — take counts back
//	POST /v1/transfer → {"values": [...], "count": 10} — re-home counts
//	POST /v1/expire  → {"now": <unix>?} — run one expiry sweep on demand
//	GET  /v1/audit   → grouped offline validation report
//	GET  /v1/headroom → admission-cache debug view (per-group min slack)
//	GET  /v1/healthz → liveness (503 once graceful shutdown begins)
//	GET  /v1/readyz  → readiness (corpus/catalog loaded)
//	GET  /metrics    → Prometheus text exposition
//
// Catalog mode serves many (content, permission) corpora from a directory
// (see internal/catalog for the layout):
//
//	GET  /v1/contents                        → entry listing
//	GET  /v1/c/{content}/{perm}/corpus       (and /groups, /audit, /headroom)
//	POST /v1/c/{content}/{perm}/issue
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/signature"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drmserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		corpusPath = flag.String("corpus", "corpus.json", "corpus document path (single-corpus mode)")
		logPath    = flag.String("log", "issued.wal",
			"issuance log WAL directory (single-corpus mode), created when absent")
		catalogPath = flag.String("catalog", "", "catalog directory (multi-content mode; overrides -corpus/-log)")
		logBackend  = flag.String("log-backend", "wal",
			"vestigial: the log is always a WAL, so wal is the only accepted value")
		fsyncMode = flag.String("fsync", "always",
			"WAL durability policy: always, os, or interval[=duration] (group commit)")
		segmentBytes = flag.Int64("segment-bytes", 0,
			"WAL segment rotation size in bytes (0 = 64 MiB default)")
		snapshotEvery = flag.Int("snapshot-every", 0,
			"WAL auto-snapshot after this many appends (0 = snapshot only via POST /v1/snapshot and at shutdown)")
		addr    = flag.String("addr", ":8080", "listen address")
		mode    = flag.String("mode", "online", "validation mode: online or offline")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"audit parallelism: groups × intra-group shards (default: all CPUs)")
		signed      = flag.Bool("signed", false, "treat -corpus as an Ed25519-signed document and verify it")
		issuerKey   = flag.String("issuer", "", "pinned issuer public key (base64; with -signed)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		traceSample = flag.String("trace-sample", "slow=250ms",
			"trace tail-sampling policy: off, all, error, or slow=<duration> (errors always retained; slow=0 retains everything)")
		traceRing = flag.Int("trace-ring", 256, "retained traces in the /debug/traces ring buffer")
		pprofAddr = flag.String("pprof-addr", "", "if set, serve net/http/pprof (and /debug/traces) on this address")
		maxBody   = flag.Int64("max-body", maxIssueBody, "max issue request body bytes (413 beyond)")
		reqTO     = flag.Duration("request-timeout", 0,
			"per-request deadline propagated through issuance and audits (0 disables); expired audits answer 504 with the verified-so-far report")
		readHeaderTO = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTO       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		writeTO      = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (bounds handler+response time)")
		idleTO       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		sloLatency   = flag.Duration("slo-latency", sloObjectives.LatencyThreshold,
			"latency SLO threshold: requests at or over this duration burn the latency budget (0 disables the latency objective)")
		sloLatencyTarget = flag.Float64("slo-latency-target", sloObjectives.LatencyTarget*100,
			"latency SLO target in percent: the share of requests that must finish under -slo-latency")
		sloAvailability = flag.Float64("slo-availability", sloObjectives.Availability*100,
			"availability SLO target in percent: the share of requests that must not answer 5xx (0 disables)")
		telemetryEvery = flag.Duration("telemetry-interval", 10*time.Second,
			"runtime/SLO telemetry sampling interval (0 disables the ticker; /metrics and /v1/status still sample on demand)")
		expireEvery = flag.Duration("expire-every", 0,
			"background expiry sweep interval debiting due TTL issuances (0 disables; POST /v1/expire sweeps on demand)")
		transferCap = flag.Int64("transfer-cap", 0,
			"cumulative per-set transfer cap enforced in online mode (0 = unlimited)")
		role  = flag.String("role", "standalone", "cluster role: standalone, leader, follower, or router")
		peers = flag.String("peers", "",
			"comma-separated peer base URLs the router shards over (role router)")
		leaderURL = flag.String("leader", "",
			"leader base URL to replicate from (role follower)")
		maxLag = flag.String("max-lag", "0",
			"replication lag bound before a follower reports unready: a record count or a duration like 5s (0 disables)")
		fetchInterval = flag.Duration("fetch-interval", time.Second,
			"follower WAL fetch interval")
		probeInterval = flag.Duration("probe-interval", 2*time.Second,
			"router peer role-probe interval")
		redirect = flag.Bool("redirect", false,
			"router answers 307 redirects to the owning shard instead of proxying")
		peerTimeout = flag.Duration("peer-timeout", cluster.DefaultFanoutTimeout,
			"router per-peer timeout for fleet fan-outs (/v1/cluster/status, /v1/cluster/traces)")
	)
	flag.Parse()
	if *workers < 1 {
		return fmt.Errorf("workers = %d, want >= 1", *workers)
	}
	if *maxBody < 1 {
		return fmt.Errorf("max-body = %d, want >= 1", *maxBody)
	}
	maxIssueBody = *maxBody
	switch *role {
	case "standalone", cluster.RoleLeader, cluster.RoleFollower, cluster.RoleRouter:
	default:
		return fmt.Errorf("unknown role %q (want standalone, leader, follower, or router)", *role)
	}
	maxLagSeqs, maxLagAge, err := cluster.ParseMaxLag(*maxLag)
	if err != nil {
		return err
	}
	clf := clusterFlags{
		role:          *role,
		peers:         *peers,
		leader:        *leaderURL,
		maxLagSeqs:    maxLagSeqs,
		maxLagAge:     maxLagAge,
		fetchInterval: *fetchInterval,
		probeInterval: *probeInterval,
		redirect:      *redirect,
		peerTimeout:   *peerTimeout,
	}
	if clf.role == cluster.RoleFollower && clf.leader == "" {
		return fmt.Errorf("role follower needs -leader")
	}
	if clf.role == cluster.RoleRouter && clf.peers == "" {
		return fmt.Errorf("role router needs -peers")
	}
	if *sloAvailability < 0 || *sloAvailability >= 100 {
		return fmt.Errorf("slo-availability = %g%%, want 0 <= target < 100", *sloAvailability)
	}
	if *sloLatencyTarget < 0 || *sloLatencyTarget >= 100 {
		return fmt.Errorf("slo-latency-target = %g%%, want 0 <= target < 100", *sloLatencyTarget)
	}
	if *sloLatency < 0 {
		return fmt.Errorf("slo-latency = %s, want >= 0", *sloLatency)
	}
	sloObjectives = slo.Objectives{
		Availability:     *sloAvailability / 100,
		LatencyTarget:    *sloLatencyTarget / 100,
		LatencyThreshold: *sloLatency,
	}
	telemetryInterval = *telemetryEvery
	srvTimeouts = serverTimeouts{
		readHeader: *readHeaderTO,
		read:       *readTO,
		write:      *writeTO,
		idle:       *idleTO,
		request:    *reqTO,
	}

	// The trace-correlating handler wraps the format/level handler so any
	// record logged with a request context gains its trace_id.
	h, err := obs.NewLogHandler(*logFormat, *logLevel, os.Stderr)
	if err != nil {
		return err
	}
	logger = slog.New(trace.LogHandler(h))

	policy, traceOn, err := trace.ParsePolicy(*traceSample)
	if err != nil {
		return err
	}
	if traceOn {
		tracer = trace.New(trace.Options{Capacity: *traceRing, Policy: policy})
		logger.Info("tracing enabled", "sample", *traceSample, "ring", *traceRing)
	}

	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofMux.Handle("/debug/traces", traceHandler())
		pprofMux.Handle("/debug/traces/", traceHandler())
		// A real http.Server (not bare ListenAndServe) so the debug
		// listener gets a slowloris guard and participates in graceful
		// shutdown: serve() closes it during the drain window.
		sideSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux,
			ReadHeaderTimeout: srvTimeouts.readHeader,
		}
		go func() {
			err := sideSrv.ListenAndServe()
			if !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server exited", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	if clf.role == cluster.RoleRouter {
		// The router carries no corpus and no log: just the ring, the
		// prober, and the shared observability surface.
		return runRouter(*addr, clf)
	}

	var m engine.Mode
	switch *mode {
	case "online":
		m = engine.ModeOnline
	case "offline":
		m = engine.ModeOffline
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	fsyncPolicy, fsyncInterval, err := wal.ParseFsync(*fsyncMode)
	if err != nil {
		return err
	}
	walOpts := wal.Options{
		SegmentBytes:  *segmentBytes,
		Fsync:         fsyncPolicy,
		Interval:      fsyncInterval,
		SnapshotEvery: *snapshotEvery,
	}

	if *catalogPath != "" {
		if clf.role != "standalone" {
			return fmt.Errorf("role %s needs single-corpus mode; shard catalogs with a router over single-corpus peers", clf.role)
		}
		if *logBackend != "wal" {
			return fmt.Errorf("-log-backend %q: catalog entries are WAL directories (want wal)", *logBackend)
		}
		cat, err := catalog.OpenWith(*catalogPath, catalog.Config{Mode: m, WAL: walOpts})
		if err != nil {
			return err
		}
		defer cat.Close()
		// Drain-time checkpoint: once serve returns (requests drained) and
		// before the logs close, snapshot every entry so the next open
		// replays nothing.
		defer snapshotCatalogOnExit(cat)
		srv := newCatalogServer(cat, *workers)
		for _, e := range cat.Entries() {
			e.Dist.SetTransferCap(*transferCap)
		}
		if *expireEvery > 0 {
			defer startSweeper(*expireEvery, srv.sweepExpired)()
			logger.Info("expiry sweeper running", "interval", expireEvery.String())
		}
		logger.Info("drmserver listening", "catalog", *catalogPath,
			"entries", cat.Len(), "mode", m.String(), "addr", *addr)
		return serve(*addr, srv.routes(), srv.obs)
	}

	cf, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	var corpus *license.Corpus
	if *signed {
		var trusted ed25519.PublicKey
		if *issuerKey != "" {
			trusted, err = signature.KeyFromString(*issuerKey)
			if err != nil {
				cf.Close()
				return err
			}
		}
		var pub ed25519.PublicKey
		corpus, pub, err = signature.ReadSignedCorpus(cf, trusted)
		cf.Close()
		if err != nil {
			return err
		}
		logger.Info("corpus signature verified", "issuer", signature.KeyToString(pub))
	} else {
		corpus, err = license.DecodeCorpus(cf)
		cf.Close()
		if err != nil {
			return err
		}
	}

	store, err := openLog(*corpusPath, *logPath, *logBackend, walOpts)
	if err != nil {
		return err
	}
	st := store.RecoveryStats()
	logger.Info("wal recovered", "snapshot_records", st.SnapshotRecords,
		"tail_records", st.TailRecords, "segments", st.SegmentsScanned,
		"truncated_bytes", st.TruncatedBytes, "duration", st.Duration.String())
	srv, err := newServer(corpus, store, m, *workers)
	if err != nil {
		store.Close()
		return err
	}
	// Drain-time checkpoint, then close. A follower re-bootstrap swaps in
	// a fresh store, so the closure reads the current one late.
	defer func() {
		ws := srv.currentAPI().wal
		if info, err := ws.Snapshot(); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else {
			logger.Info("final snapshot installed", "records", info.Records, "seq", info.Seq)
		}
		if err := ws.Close(); err != nil {
			logger.Error("closing the log", "err", err)
		}
	}()
	srv.walOpts = walOpts
	srv.api.dist.SetTransferCap(*transferCap)
	if clf.role == cluster.RoleLeader {
		srv.role = cluster.RoleLeader
	}
	if clf.role == cluster.RoleFollower {
		stopFollower, err := srv.startFollower(clf)
		if err != nil {
			return err
		}
		defer stopFollower()
		logger.Info("replicating", "leader", clf.leader,
			"fetch_interval", clf.fetchInterval.String(),
			"max_lag_seqs", clf.maxLagSeqs, "max_lag_age", clf.maxLagAge.String())
	}
	if *expireEvery > 0 {
		defer startSweeper(*expireEvery, srv.sweepExpired)()
		logger.Info("expiry sweeper running", "interval", expireEvery.String())
	}
	logger.Info("drmserver listening", "licenses", corpus.Len(),
		"mode", m.String(), "addr", *addr, "role", clf.role)
	return serve(*addr, srv.routes(), srv.obs)
}

// openLog opens (creating if needed) the single-corpus WAL at path. A
// JSONL log, a regular file at path, is refused untouched with a
// *wal.MigrationError naming the drmaudit run that converts it into the
// WAL directory beside it. Any backend but wal is refused after that.
func openLog(corpusPath, path, backend string, walOpts wal.Options) (*wal.Store, error) {
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		dir := strings.TrimSuffix(path, filepath.Ext(path)) + ".wal"
		if dir == path {
			dir += ".wal"
		}
		return nil, &wal.MigrationError{Corpus: corpusPath, Log: path, WAL: dir}
	}
	if backend != "wal" {
		return nil, fmt.Errorf("unknown -log-backend %q (want wal)", backend)
	}
	return wal.Open(path, walOpts)
}

// snapshotCatalogOnExit checkpoints every entry, logging the outcome.
func snapshotCatalogOnExit(cat *catalog.Catalog) {
	infos, err := cat.SnapshotAll()
	if err != nil {
		logger.Error("final snapshot failed", "err", err)
	}
	for e, info := range infos {
		logger.Info("final snapshot installed", "content", e.Content,
			"permission", string(e.Permission), "records", info.Records, "seq", info.Seq)
	}
}

// serverTimeouts carries the http.Server hardening knobs plus the
// per-request deadline from -request-timeout.
type serverTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	write      time.Duration
	idle       time.Duration
	request    time.Duration
}

// srvTimeouts is set from flags in run(); the zero value (no timeouts)
// keeps tests that call handlers directly unaffected.
var srvTimeouts serverTimeouts

// sideSrv is the pprof/debug side listener, when -pprof-addr is set;
// serve() shuts it down during the drain window so the process exits
// with no listener left behind.
var sideSrv *http.Server

// withRequestTimeout wraps handler so every request's context carries the
// given deadline. Handlers propagate r.Context() into issuance and
// audits, so an expired deadline surfaces as a typed 499/504 body instead
// of a hung connection.
func withRequestTimeout(handler http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return handler
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		handler.ServeHTTP(w, r.WithContext(ctx))
	})
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests before returning, so the deferred snapshots and log closes
// always run. The health state flips to draining before Shutdown, so
// /v1/healthz answers 503 for the whole drain window.
func serve(addr string, handler http.Handler, o *serverObs) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           withRequestTimeout(handler, srvTimeouts.request),
		ReadHeaderTimeout: srvTimeouts.readHeader,
		ReadTimeout:       srvTimeouts.read,
		WriteTimeout:      srvTimeouts.write,
		IdleTimeout:       srvTimeouts.idle,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if telemetryInterval > 0 {
		stopTelemetry := o.startTelemetry(telemetryInterval)
		defer stopTelemetry()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		o.draining.Store(true)
		logger.Info("shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if sideSrv != nil {
			if err := sideSrv.Shutdown(shutdownCtx); err != nil {
				logger.Error("pprof shutdown", "err", err)
			}
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("drmserver: shutdown: %w", err)
		}
		return nil
	}
}

// corpusAPI serves one (content, permission) corpus. It takes no lock:
// the corpus never changes once the server is built, and the
// Distributor is the one writer of its log and derived state — its own
// mutex serialises writes, headroom reads and an audit's view of the
// log, while the audit's equation walk runs beside writes.
type corpusAPI struct {
	corpus  *license.Corpus
	dist    *engine.Distributor
	workers int
	// wal is the entry's log. The store synchronises snapshots
	// internally, so appends proceed during a snapshot.
	wal *wal.Store
}

// server is the single-corpus mode: one corpusAPI at fixed routes.
// swapMu guards the api/repl fields themselves: handlers resolve the
// current corpusAPI per request (see currentAPI), so a follower
// re-bootstrap can swap in a fresh store and distributor atomically.
type server struct {
	swapMu  sync.RWMutex
	api     corpusAPI
	repl    *cluster.Leader
	obs     *serverObs
	role    string
	mode    engine.Mode
	walOpts wal.Options
	// follower is non-nil when this server replicates from a leader; it
	// is set once at startup and never swapped.
	follower *cluster.Follower
}

// buildDistributor assembles the engine state over a (possibly
// recovered) log: corpus registration, then — in online mode — the
// admission-cache warm-up so the first issuance pays no replay.
func buildDistributor(corpus *license.Corpus, store *wal.Store, mode engine.Mode) (*engine.Distributor, error) {
	d := engine.NewDistributor("drmserver", corpus.Schema(), mode, store)
	for _, l := range corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			return nil, err
		}
	}
	if mode == engine.ModeOnline {
		if err := d.WarmHeadroom(context.Background()); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func newServer(corpus *license.Corpus, store *wal.Store, mode engine.Mode, workers int) (*server, error) {
	d, err := buildDistributor(corpus, store, mode)
	if err != nil {
		return nil, err
	}
	o := newServerObs(func() error {
		if corpus.Len() == 0 {
			return errors.New("corpus empty")
		}
		return nil
	})
	srv := &server{
		api:  corpusAPI{corpus: corpus, dist: d, workers: workers, wal: store},
		repl: cluster.NewLeader(store, 0),
		obs:  o,
		role: cluster.RoleStandalone,
		mode: mode,
	}
	// Both read the store through the swap-aware handle: a follower
	// re-bootstrap replaces it.
	o.info = func() serviceStatus {
		api := srv.currentAPI()
		return serviceStatus{
			Name:       "drmserver",
			Mode:       mode.String(),
			Entries:    1,
			Licenses:   corpus.Len(),
			Groups:     api.dist.NumGroups(),
			LogRecords: api.wal.Len(),
		}
	}
	o.walBacklog = func() int64 { return srv.currentAPI().wal.Backlog() }
	o.roleInfo = srv.roleInfo
	o.repl = srv.replicationStatus
	return srv, nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	s.obs.mountCommon(mux)
	// Single-corpus mode has one catalog entry; track it under "corpus"
	// so /v1/slo and /v1/status expose the same entry-scoped windows the
	// catalog mode does. Handlers resolve the current corpusAPI per
	// request through s.entry, so a follower re-bootstrap's store swap
	// is visible without remounting.
	entry := s.obs.slo.Entry("corpus")
	s.obs.wrap(mux, "GET /v1/corpus", s.entry(corpusAPI.handleCorpus))
	s.obs.wrap(mux, "GET /v1/groups", s.entry(corpusAPI.handleGroups))
	s.obs.wrap(mux, "POST /v1/issue", entryObserved(entry, s.entry(corpusAPI.handleIssue)))
	s.obs.wrap(mux, "POST /v1/revoke", entryObserved(entry, s.entry(corpusAPI.handleRevoke)))
	s.obs.wrap(mux, "POST /v1/transfer", entryObserved(entry, s.entry(corpusAPI.handleTransfer)))
	s.obs.wrap(mux, "POST /v1/expire", entryObserved(entry, s.entry(corpusAPI.handleExpire)))
	s.obs.wrap(mux, "GET /v1/audit", entryObserved(entry, s.entry(corpusAPI.handleAudit)))
	s.obs.wrap(mux, "GET /v1/stats", s.entry(corpusAPI.handleStats))
	s.obs.wrap(mux, "GET /v1/headroom", s.obs.drainGuard(s.entry(corpusAPI.handleHeadroom)))
	s.obs.wrap(mux, "POST /v1/snapshot", s.entry(corpusAPI.handleSnapshot))
	// Replication: the serving side every single-corpus server exposes, plus
	// the follower's promotion trigger. Untracked like the health probes
	// — a follower's poll loop must not burn the SLO budget.
	s.obs.wrapUntracked(mux, "GET /v1/repl/wal", s.handleReplWAL)
	s.obs.wrapUntracked(mux, "GET /v1/repl/snapshot", s.handleReplSnapshot)
	s.obs.wrap(mux, "POST /v1/promote", s.handlePromote)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger.Error("encoding response", "err", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
	// Kind is the drmerr taxonomy name ("violation", "incomplete", ...),
	// empty for errors outside the taxonomy.
	Kind string `json:"kind,omitempty"`
	// TraceID is the request's trace (when tracing is on), the handle a
	// caller quotes to pull the full span tree from /debug/traces/{id} —
	// error traces are always retained by the sampler.
	TraceID string `json:"trace_id,omitempty"`
}

// body builds the structured error body for a classified error,
// stamping the request's trace ID when the context carries one.
func body(ctx context.Context, err error) errorBody {
	b := errorBody{Error: err.Error(), TraceID: trace.IDFromContext(ctx)}
	if k := drmerr.KindOf(err); k != drmerr.KindUnknown {
		b.Kind = k.String()
	}
	return b
}

// clientError writes a plain client-fault body (bad JSON, unknown kind,
// oversized request) with the request's trace ID attached.
func clientError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, TraceID: trace.IDFromContext(ctx)})
}

// writeError maps a pipeline error to its taxonomy HTTP status (409
// violation, 422 model errors, 499 client cancelled, 503 store corrupt,
// 504 deadline-cut audit, ...) with a structured JSON body.
func writeError(ctx context.Context, w http.ResponseWriter, err error) {
	writeJSON(w, drmerr.HTTPStatus(err), body(ctx, err))
}

func (s corpusAPI) handleCorpus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := license.EncodeCorpus(w, s.corpus); err != nil {
		logger.Error("encoding corpus", "err", err)
	}
}

type groupsBody struct {
	Groups [][]int `json:"groups"` // one-based license numbers per group
	Gain   float64 `json:"gain"`
}

func (s corpusAPI) handleGroups(w http.ResponseWriter, r *http.Request) {
	gr := overlap.GroupsOf(s.corpus)
	body := groupsBody{Gain: core.Gain(gr)}
	for _, g := range gr.Groups {
		var ids []int
		g.Members.ForEach(func(j int) bool { ids = append(ids, j+1); return true })
		body.Groups = append(body.Groups, ids)
	}
	writeJSON(w, http.StatusOK, body)
}

type issueRequest struct {
	Values []license.ValueDoc `json:"values"`
	Count  int64              `json:"count"`
	Kind   string             `json:"kind"` // "usage" (default) or "redistribution"
	// TTLSeconds, when positive, makes the issuance time-limited: its
	// record carries expiry = now + TTLSeconds, and an expiry sweep past
	// that moment debits the counts back. Expiry (absolute Unix seconds)
	// wins when both are set.
	TTLSeconds int64 `json:"ttl_seconds,omitempty"`
	Expiry     int64 `json:"expiry,omitempty"`
}

type issueResponse struct {
	Name      string `json:"name"`
	BelongsTo []int  `json:"belongs_to"` // one-based license numbers
	Count     int64  `json:"count"`
}

func (s corpusAPI) handleIssue(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxIssueBody)
	var req issueRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			clientError(r.Context(), w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		clientError(r.Context(), w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	kind := license.Usage
	switch req.Kind {
	case "", "usage":
	case "redistribution":
		kind = license.Redistribution
	default:
		clientError(r.Context(), w, http.StatusBadRequest, "unknown kind "+req.Kind)
		return
	}
	rect, err := license.BuildRect(s.corpus.Schema(), req.Values)
	if err != nil {
		clientError(r.Context(), w, http.StatusBadRequest, err.Error())
		return
	}
	expiry := req.Expiry
	if expiry == 0 && req.TTLSeconds > 0 {
		expiry = time.Now().Unix() + req.TTLSeconds
	}
	var issued *license.License
	if expiry > 0 {
		issued, err = s.dist.IssueTTLContext(r.Context(), kind, rect, req.Count, expiry)
	} else {
		issued, err = s.dist.IssueContext(r.Context(), kind, rect, req.Count)
	}
	var belongs []int
	if err == nil {
		s.dist.BelongsTo(rect).ForEach(func(j int) bool {
			belongs = append(belongs, j+1)
			return true
		})
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, issueResponse{
			Name:      issued.Name,
			BelongsTo: belongs,
			Count:     issued.Aggregate,
		})
	case drmerr.KindOf(err) != drmerr.KindUnknown:
		// Taxonomy errors carry their own status: 422 instance-invalid,
		// 409 aggregate violation, 400 invalid input, 499 cancelled, ...
		writeError(r.Context(), w, err)
	default:
		clientError(r.Context(), w, http.StatusBadRequest, err.Error())
	}
}

type statsResponse struct {
	Licenses          int   `json:"licenses"`
	Groups            int   `json:"groups"`
	Issued            int   `json:"issued"`
	IssuedCounts      int64 `json:"issued_counts"`
	RejectedInstance  int   `json:"rejected_instance"`
	RejectedAggregate int   `json:"rejected_aggregate"`
	Revoked           int   `json:"revoked"`
	RevokedCounts     int64 `json:"revoked_counts"`
	Expired           int   `json:"expired"`
	ExpiredCounts     int64 `json:"expired_counts"`
	Transferred       int   `json:"transferred"`
	TransferredCounts int64 `json:"transferred_counts"`
}

func (s corpusAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.dist.Stats()
	body := statsResponse{
		Licenses:          s.corpus.Len(),
		Groups:            s.dist.NumGroups(), // read-only on the union-find
		Issued:            st.Issued,
		IssuedCounts:      st.IssuedCounts,
		RejectedInstance:  st.RejectedInstance,
		RejectedAggregate: st.RejectedAggregate,
		Revoked:           st.Revoked,
		RevokedCounts:     st.RevokedCounts,
		Expired:           st.Expired,
		ExpiredCounts:     st.ExpiredCounts,
		Transferred:       st.Transferred,
		TransferredCounts: st.TransferredCounts,
	}
	writeJSON(w, http.StatusOK, body)
}

type headroomResponse struct {
	// Groups is the per-group state of the kept flow: observed sets, the
	// minimum remaining slack, the deficit and the rejections.
	Groups []headroom.GroupSummary `json:"groups"`
}

// handleHeadroom is the admission-cache debug endpoint: per-group
// min-slack summaries straight from the cache the hot path reads. The
// distributor reads them under its mutex, so a first call may warm the
// cache from a consistent log view.
func (s corpusAPI) handleHeadroom(w http.ResponseWriter, r *http.Request) {
	sums, err := s.dist.HeadroomSummaries(r.Context())
	if err != nil {
		writeError(r.Context(), w, err)
		return
	}
	writeJSON(w, http.StatusOK, headroomResponse{Groups: sums})
}

// handleSnapshot checkpoints the log on demand: fsync, compact the
// history into per-set counts, install atomically, retire covered
// segments in the background.
func (s corpusAPI) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.wal.SnapshotContext(r.Context())
	if err != nil {
		writeError(r.Context(), w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

type auditResponse struct {
	OK         bool     `json:"ok"`
	Groups     int      `json:"groups"`
	Equations  int64    `json:"equations"`
	Gain       float64  `json:"gain"`
	Violations []string `json:"violations,omitempty"`
	// Complete is false when the request deadline cut the audit short;
	// GroupsComplete counts the groups whose equations were all checked.
	Complete       bool   `json:"complete"`
	GroupsComplete int    `json:"groups_complete"`
	Error          string `json:"error,omitempty"`
	Kind           string `json:"kind,omitempty"`
	TraceID        string `json:"trace_id,omitempty"`
}

func (s corpusAPI) handleAudit(w http.ResponseWriter, r *http.Request) {
	// Auditing builds its own tree from corpus + log and mutates neither;
	// writes wait only for its replay and cache checks, not its walk.
	rep, aud, err := s.dist.AuditContext(r.Context(), s.workers)
	if err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
		writeError(r.Context(), w, err)
		return
	}
	resp := auditResponse{
		OK:             rep.OK(),
		Groups:         aud.Grouping().NumGroups(),
		Equations:      rep.Equations,
		Gain:           aud.Gain(),
		Complete:       rep.Complete(),
		GroupsComplete: rep.GroupsComplete(),
	}
	for _, v := range rep.Violations {
		resp.Violations = append(resp.Violations, v.String())
	}
	status := http.StatusOK
	if err != nil {
		// Deadline-cut audit: the verified-so-far report rides along with
		// the 504 so callers still see every violation found (all real —
		// completed groups' verdicts are independent of the cut-off ones).
		status = drmerr.HTTPStatus(err)
		resp.Error = err.Error()
		resp.Kind = drmerr.KindOf(err).String()
		resp.TraceID = trace.IDFromContext(r.Context())
	}
	writeJSON(w, status, resp)
}
