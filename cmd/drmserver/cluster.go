// Cluster roles for drmserver. One binary plays four parts:
//
//   - standalone (default): exactly the pre-cluster behaviour;
//   - leader: standalone plus the replication endpoints (/v1/repl/wal,
//     /v1/repl/snapshot) any single-corpus server can serve;
//   - follower: a read-only replica tailing -leader's WAL into its own
//     -log directory through the ordinary recovery path, landing each
//     window and keeping stats and the headroom cache warm in one step
//     via engine.ApplyReplicated, serving
//     audits/headroom/status live, refusing writes with typed 403s, and
//     flipping to leader on POST /v1/promote;
//   - router: a corpus-less front tier forwarding each request to the
//     shard owning its catalog key on a consistent-hash ring, with
//     role-aware health probing.
package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/logstore"
	"repro/internal/trace"
	"repro/internal/wal"
)

// clusterFlags carries the parsed -role/-peers/-leader/... values into
// the role wiring.
type clusterFlags struct {
	role          string
	peers         string
	leader        string
	maxLagSeqs    int64
	maxLagAge     time.Duration
	fetchInterval time.Duration
	probeInterval time.Duration
	redirect      bool
	// peerTimeout bounds each per-peer call of a router fleet fan-out
	// (/v1/cluster/status, /v1/cluster/traces).
	peerTimeout time.Duration
	// fetchBytes bounds one replication fetch (0 = the cluster
	// package's default); tests shrink it to observe partial catch-up.
	fetchBytes int
}

// replicationStatus is the replication block of /v1/status.
type replicationStatus struct {
	Role       string  `json:"role"`
	Ready      bool    `json:"ready"`
	Leader     string  `json:"leader,omitempty"`
	Seq        uint64  `json:"seq"`
	LagSeqs    int64   `json:"lag_seqs,omitempty"`
	LagSeconds float64 `json:"lag_seconds,omitempty"`
	Promoted   bool    `json:"promoted,omitempty"`
}

// currentAPI returns the corpusAPI snapshot handlers should serve with:
// the follower's re-bootstrap path swaps the distributor and store
// atomically under swapMu, exactly like catalog mode resolves its entry
// per request.
func (s *server) currentAPI() corpusAPI {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return s.api
}

// entry adapts a corpusAPI method to an http.HandlerFunc resolving the
// current API per request. Single-corpus mode has one catalog entry,
// tracked under "corpus", so /v1/slo and /v1/status expose the same
// entry-scoped windows catalog mode does, fed by every entry route.
func (s *server) entry(h func(corpusAPI, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	window := s.obs.slo.Entry("corpus")
	return func(w http.ResponseWriter, r *http.Request) {
		observeEntry(w, window)
		h(s.currentAPI(), w, r)
	}
}

// leaderFor returns the current replication serving side.
func (s *server) leaderFor() *cluster.Leader {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	return s.repl
}

func (s *server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	s.leaderFor().HandleWAL(w, r)
}

func (s *server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	s.leaderFor().HandleSnapshot(w, r)
}

// roleInfo composes this server's role-probe body.
func (s *server) roleInfo() cluster.RoleInfo {
	if s.follower != nil {
		return s.follower.Role()
	}
	return cluster.RoleInfo{
		Role:  s.role,
		Ready: s.obs.ready() == nil && !s.obs.draining.Load(),
		Seq:   s.currentAPI().wal.SyncedSeq(),
	}
}

// replicationStatus derives the /v1/status replication block from the
// role probe plus the follower's lag detail.
func (s *server) replicationStatus() *replicationStatus {
	info := s.roleInfo()
	st := &replicationStatus{
		Role:       info.Role,
		Ready:      info.Ready,
		Leader:     info.Leader,
		Seq:        info.Seq,
		LagSeqs:    info.LagSeqs,
		LagSeconds: info.LagSeconds,
	}
	if s.follower != nil {
		st.Promoted = s.follower.Promoted()
	}
	return st
}

// handlePromote flips a follower to leader: the fetch loop drains (one
// final best-effort catch-up included), the distributor's read-only
// gate clears, and the response reports the lag at promotion. A
// non-follower answers 409; a repeated promote answers 200 idempotently.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.follower == nil {
		clientError(r.Context(), w, http.StatusConflict,
			"this instance is not a follower (role "+s.role+")")
		return
	}
	already := s.follower.Promoted()
	lag := s.follower.Promote(r.Context())
	s.currentAPI().dist.SetReadOnly(false)
	if !already {
		logger.Info("promoted to leader", "lag_seqs", lag.Seqs, "seq", lag.LocalSeq)
	}
	writeJSON(w, http.StatusOK, struct {
		Role    string      `json:"role"`
		Already bool        `json:"already_promoted,omitempty"`
		Lag     cluster.Lag `json:"lag"`
	}{Role: cluster.RoleLeader, Already: already, Lag: lag})
}

// applyReplicated lands a shipped window and folds its records into the
// current distributor's derived state, under the distributor's mutex.
func (s *server) applyReplicated(ctx context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
	return s.currentAPI().dist.ApplyReplicated(ctx, land)
}

// resetMirror is the follower's re-bootstrap path: the leader compacted
// past our cursor, so the local mirror is rebuilt from its snapshot
// document and the serving state (distributor, headroom cache, repl
// endpoints) is swapped to the fresh store.
func (s *server) resetMirror(ctx context.Context, doc *wal.BootstrapDoc) (*wal.Store, error) {
	old := s.currentAPI()
	dir := old.wal.Dir()
	if err := old.wal.Close(); err != nil {
		logger.Warn("closing outgrown mirror", "err", err)
	}
	ns, err := cluster.ReinstallStore(dir, doc, s.walOpts)
	if err != nil {
		return nil, err
	}
	d, err := buildDistributor(old.corpus, ns, s.mode)
	if err != nil {
		ns.Close()
		return nil, err
	}
	d.SetReadOnly(true)
	s.swapMu.Lock()
	s.api.dist = d
	s.api.wal = ns
	s.repl = cluster.NewLeader(ns, 0)
	s.swapMu.Unlock()
	logger.Info("mirror re-bootstrapped from leader snapshot",
		"records", ns.Len(), "seq", ns.Seq())
	return ns, nil
}

// startFollower wires the follower role onto a freshly built
// single-corpus server: read-only gate, replication-aware readiness,
// and the background fetch loop. The returned stop cancels the loop.
func (s *server) startFollower(cf clusterFlags) (stop func(), err error) {
	api := s.currentAPI()
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		Leader:     strings.TrimRight(cf.leader, "/"),
		Store:      api.wal,
		MaxBytes:   cf.fetchBytes,
		Interval:   cf.fetchInterval,
		MaxLagSeqs: cf.maxLagSeqs,
		MaxLagAge:  cf.maxLagAge,
		Apply:      s.applyReplicated,
		Reset:      s.resetMirror,
		OnError: func(err error) {
			logger.Warn("replication fetch failed", "err", err)
		},
		// Fetch round-trips root "repl.fetch" spans whose IDs the leader's
		// ship spans continue, so replication is traceable end to end.
		Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	s.follower = f
	api.dist.SetReadOnly(true)
	base := s.obs.ready
	s.obs.ready = func() error {
		if err := base(); err != nil {
			return err
		}
		return f.ReadyErr()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	return cancel, nil
}

// runRouter serves the router role: no corpus, no log — just the ring,
// the prober, and the proxy, plus the shared observability surface.
func runRouter(addr string, cf clusterFlags) error {
	var peers []string
	for _, p := range strings.Split(cf.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:         peers,
		ProbeInterval: cf.probeInterval,
		Redirect:      cf.redirect,
		FanoutTimeout: cf.peerTimeout,
		LocalName:     cluster.RoleRouter,
		// The router's own fragment of a distributed trace joins the
		// merged /v1/cluster/traces/{id} document (nil-safe when off).
		LocalTrace: func(id string) *trace.TraceRecord { return tracer.Get(id) },
	})
	if err != nil {
		return err
	}
	o := newServerObs(func() error {
		if !rt.Ready() {
			return fmt.Errorf("no healthy leader among %d peers", len(peers))
		}
		return nil
	})
	o.info = func() serviceStatus {
		return serviceStatus{Name: "drmserver", Mode: cluster.RoleRouter, Entries: len(peers)}
	}
	o.roleInfo = func() cluster.RoleInfo {
		return cluster.RoleInfo{Role: cluster.RoleRouter, Ready: rt.Ready()}
	}
	rt.Start()
	defer rt.Stop()

	mode := "proxy"
	if cf.redirect {
		mode = "redirect"
	}
	logger.Info("drmserver routing", "peers", len(peers), "addr", addr,
		"forward", mode, "probe_interval", cf.probeInterval.String())
	return serve(addr, routerRoutes(o, rt), o)
}

// routerRoutes mounts the router's surface: the shared observability
// routes, the fleet views, and the catch-all proxy.
func routerRoutes(o *serverObs, rt *cluster.Router) http.Handler {
	mux := http.NewServeMux()
	o.mountCommon(mux)
	o.wrap(mux, "GET /v1/cluster", rt.HandleCluster)
	o.wrap(mux, "GET /v1/cluster/status", rt.HandleClusterStatus)
	o.wrap(mux, "GET /v1/cluster/traces/{id}", rt.HandleClusterTrace)
	// Everything else is someone else's request: forward it to the
	// owning shard (or 307 there with -redirect). The empty pattern
	// names each root span "METHOD /path" so the router's fragment of a
	// forwarded request lines up with the peer's root by name; it feeds
	// no SLO window, since the peer that serves it already counts it.
	mux.Handle("/", o.observed("", nil, rt.ServeHTTP))
	return mux
}
