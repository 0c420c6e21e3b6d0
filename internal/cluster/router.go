// Router: a stateless front tier that maps each request's catalog key
// onto the consistent-hash ring and forwards it to the owning shard —
// a reverse proxy by default, a 307 redirect when the operator prefers
// clients to follow ownership themselves. A background prober keeps a
// role/health view of every peer (GET /v1/repl/role; a 404 is a peer
// predating the cluster subsystem, treated as a ready leader), and
// routing is role-aware: mutations only ever land on healthy leaders,
// reads on any healthy, ready peer, with the ring's successor order as
// the fallback path around an unhealthy owner.

package cluster

import (
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/drmerr"
	"repro/internal/trace"
)

// DefaultFanoutTimeout bounds each per-peer call inside a fleet
// aggregation sweep when the config does not.
const DefaultFanoutTimeout = 2 * time.Second

// RouterConfig wires a router to its peer set.
type RouterConfig struct {
	// Peers are the shard base URLs (e.g. "http://10.0.0.1:8080").
	Peers []string
	// Vnodes per peer on the ring (DefaultVnodes when <= 0).
	Vnodes int
	// Client issues the health probes (http.DefaultClient when nil).
	Client *http.Client
	// ProbeInterval paces the background prober (2s when <= 0).
	ProbeInterval time.Duration
	// Redirect answers 307 with the owner's URL instead of proxying.
	Redirect bool
	// FanoutTimeout bounds each per-peer call of a fleet aggregation
	// sweep — /v1/cluster/status and /v1/cluster/traces degrade to
	// reporting a peer unreachable instead of hanging on it
	// (DefaultFanoutTimeout when <= 0).
	FanoutTimeout time.Duration
	// LocalName labels the router's own trace fragment in merged
	// cross-process documents ("router" is a good choice).
	LocalName string
	// LocalTrace looks a trace up in the router's own retained ring so
	// the router's fragment joins the merged document; nil routers merge
	// peer fragments only.
	LocalTrace func(id string) *trace.TraceRecord
}

// PeerStatus is one row of the router's health view (the /v1/cluster
// body).
type PeerStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Role    string `json:"role"`
	Ready   bool   `json:"ready"`
	Seq     uint64 `json:"seq"`
	LagSeqs int64  `json:"lag_seqs,omitempty"`
	// LastProbeUnix is when this row was last refreshed (0 = never).
	LastProbeUnix int64  `json:"last_probe_unix"`
	Error         string `json:"error,omitempty"`
}

// Router routes requests to the peer owning their catalog key.
type Router struct {
	cfg  RouterConfig
	ring *Ring

	mu      sync.RWMutex
	state   map[string]*PeerStatus
	proxies map[string]*httputil.ReverseProxy
	buffers proxyBuffers // every proxy's response copy buffers

	stop chan struct{}
	done chan struct{}
}

// NewRouter builds a router over the configured peers. Peers start
// unprobed (unhealthy); call ProbeAll or Start before serving.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, drmerr.New(drmerr.KindInvalidInput, "cluster.router",
			"cluster: router needs at least one peer")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.FanoutTimeout <= 0 {
		cfg.FanoutTimeout = DefaultFanoutTimeout
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		state:   make(map[string]*PeerStatus),
		proxies: make(map[string]*httputil.ReverseProxy),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		p = strings.TrimRight(p, "/")
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, drmerr.New(drmerr.KindInvalidInput, "cluster.router",
				"cluster: peer %q is not an absolute URL", p)
		}
		rt.ring.Add(p)
		rt.state[p] = &PeerStatus{Addr: p}
		proxy := httputil.NewSingleHostReverseProxy(u)
		proxy.BufferPool = &rt.buffers
		peer := p
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			// Resolved lazily: Instrument may run after NewRouter.
			M.RouterProxyErrors.With(peer).Inc()
			werr := drmerr.Wrap(drmerr.KindUnavailable, "cluster.router", err)
			// r is the outbound clone, so its context still carries the
			// forward span minted in ServeHTTP.
			trace.SpanFromContext(r.Context()).Fail(werr)
			writeErr(r.Context(), w, werr)
		}
		rt.proxies[p] = proxy
	}
	return rt, nil
}

// proxyBufSize is the copy buffer httputil.ReverseProxy allocates for
// every response it proxies when it has no BufferPool.
const proxyBufSize = 32 << 10

// proxyBuffers is the BufferPool a router's proxies share, so a
// proxied response reuses a copy buffer instead of allocating one.
type proxyBuffers struct{ pool sync.Pool }

func (p *proxyBuffers) Get() []byte {
	if b, ok := p.pool.Get().(*[proxyBufSize]byte); ok {
		return b[:]
	}
	return make([]byte, proxyBufSize)
}

func (p *proxyBuffers) Put(b []byte) {
	if len(b) == proxyBufSize {
		p.pool.Put((*[proxyBufSize]byte)(b))
	}
}

// KeyForPath extracts the routing key from a request path: catalog
// routes ("/v1/c/{content}/{perm}/...") key on the content/permission
// pair — the unit consistent hashing shards — and every other path
// shares the empty key, so single-corpus deployments route as one
// shard.
func KeyForPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/c/")
	if !ok {
		return ""
	}
	parts := strings.SplitN(rest, "/", 3)
	if len(parts) < 2 {
		return ""
	}
	return parts[0] + "/" + parts[1]
}

// mutating reports whether the request must land on a leader.
func mutating(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	return true
}

// Route picks the owning peer for the request, walking the ring's
// successor order past peers that are unhealthy (or, for mutations,
// not leaders).
func (rt *Router) Route(r *http.Request) (string, bool) {
	key := KeyForPath(r.URL.Path)
	needLeader := mutating(r)
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.OwnerWhere(key, func(peer string) bool {
		st, ok := rt.state[peer]
		if !ok || !st.Healthy {
			return false
		}
		if needLeader {
			return st.Role == RoleLeader || st.Role == RoleStandalone
		}
		return st.Ready
	})
}

// ServeHTTP forwards the request to its owner (proxy or 307), answering
// a typed 503 when no eligible peer exists. When the request is traced,
// a "router.forward" child span covers the round-trip and its context is
// injected as a traceparent header — onto the forwarded request when
// proxying, onto the response when redirecting — so the downstream
// fragment continues this trace ID.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	peer, ok := rt.Route(r)
	if !ok {
		M.RouterNoPeer.Inc()
		writeErr(r.Context(), w, drmerr.New(drmerr.KindUnavailable, "cluster.router",
			"cluster: no healthy peer for %s %s", r.Method, r.URL.Path))
		return
	}
	ctx, sp := trace.Start(r.Context(), "router.forward")
	sp.SetAttr("peer", peer)
	if key := KeyForPath(r.URL.Path); key != "" {
		sp.SetAttr("key", key)
	}
	if rt.cfg.Redirect {
		M.RouterRedirects.Inc()
		trace.Inject(ctx, w.Header())
		sp.End()
		http.Redirect(w, r, peer+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return
	}
	M.RouterForwards.Inc()
	rt.mu.RLock()
	proxy := rt.proxies[peer]
	rt.mu.RUnlock()
	if sp != nil {
		r = r.WithContext(ctx)
	}
	trace.Inject(ctx, r.Header)
	proxy.ServeHTTP(w, r)
	sp.End()
}

// Peers returns the current health view, in ring-membership order.
func (rt *Router) Peers() []PeerStatus {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]PeerStatus, 0, len(rt.state))
	for _, p := range rt.ring.Peers() {
		out = append(out, *rt.state[p])
	}
	return out
}

// Ready reports whether at least one healthy leader is routable.
func (rt *Router) Ready() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, st := range rt.state {
		if st.Healthy && (st.Role == RoleLeader || st.Role == RoleStandalone) {
			return true
		}
	}
	return false
}

// ProbeAll refreshes every peer's health row once, concurrently.
func (rt *Router) ProbeAll() {
	var wg sync.WaitGroup
	for _, p := range rt.ring.Peers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			rt.probe(peer)
		}(p)
	}
	wg.Wait()
}

func (rt *Router) probe(peer string) {
	M.Probes.Inc()
	st := PeerStatus{Addr: peer, LastProbeUnix: time.Now().Unix()}
	resp, err := rt.cfg.Client.Get(peer + "/v1/repl/role")
	switch {
	case err != nil:
		M.ProbeFailures.Inc()
		st.Error = err.Error()
	case resp.StatusCode == http.StatusNotFound:
		// A peer predating the cluster subsystem: standalone, so it
		// accepts writes and serves reads.
		resp.Body.Close()
		st.Healthy, st.Ready, st.Role = true, true, RoleStandalone
	case resp.StatusCode != http.StatusOK:
		resp.Body.Close()
		M.ProbeFailures.Inc()
		st.Error = "probe answered " + resp.Status
	default:
		var info RoleInfo
		err := decodeBody(resp, &info)
		if err != nil {
			M.ProbeFailures.Inc()
			st.Error = err.Error()
			break
		}
		st.Healthy = true
		st.Role = info.Role
		st.Ready = info.Ready
		st.Seq = info.Seq
		st.LagSeqs = info.LagSeqs
	}
	rt.mu.Lock()
	rt.state[peer] = &st
	rt.mu.Unlock()
}

// Start runs the background prober until Stop; the first sweep runs
// before Start returns so the router is immediately routable.
func (rt *Router) Start() {
	rt.ProbeAll()
	go func() {
		defer close(rt.done)
		tick := time.NewTicker(rt.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-tick.C:
				rt.ProbeAll()
			}
		}
	}()
}

// Stop halts the background prober.
func (rt *Router) Stop() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
		<-rt.done
	}
}

// HandleCluster serves the router's health view.
func (rt *Router) HandleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Role  string       `json:"role"`
		Peers []PeerStatus `json:"peers"`
	}{Role: RoleRouter, Peers: rt.Peers()})
}
