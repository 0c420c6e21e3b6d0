package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// fakePeer is a shard stub: it answers the role probe with the given
// info (or 404 to play a legacy standalone) and echoes its name on
// every other route.
func fakePeer(t *testing.T, name string, role *RoleInfo) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/role", func(w http.ResponseWriter, r *http.Request) {
		if role == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, role)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Peer", name)
		io.WriteString(w, name)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll()
	return rt
}

// TestRouterRoleAwareRouting: mutations land only on leaders (legacy
// 404-probe peers count as leaders), reads may land on ready followers,
// and the ring's assignment is respected for healthy owners.
func TestRouterRoleAwareRouting(t *testing.T) {
	leader := fakePeer(t, "leader", &RoleInfo{Role: RoleLeader, Ready: true})
	follower := fakePeer(t, "follower", &RoleInfo{Role: RoleFollower, Ready: true})
	legacy := fakePeer(t, "legacy", nil)
	rt := newTestRouter(t, RouterConfig{Peers: []string{leader.URL, follower.URL, legacy.URL}})

	writers := map[string]bool{leader.URL: true, legacy.URL: true}
	readers := map[string]bool{leader.URL: true, follower.URL: true, legacy.URL: true}
	for i := 0; i < 50; i++ {
		path := "/v1/c/content-" + strings.Repeat("x", i%7) + "/usage/issue"
		wr := httptest.NewRequest(http.MethodPost, path, nil)
		peer, ok := rt.Route(wr)
		if !ok || !writers[peer] {
			t.Fatalf("write %s routed to %q (ok=%v), want a leader", path, peer, ok)
		}
		rr := httptest.NewRequest(http.MethodGet, path, nil)
		peer, ok = rt.Route(rr)
		if !ok || !readers[peer] {
			t.Fatalf("read %s routed to %q (ok=%v), want a ready peer", path, peer, ok)
		}
	}
	if !rt.Ready() {
		t.Fatal("router with healthy leaders reports not ready")
	}
}

// TestRouterProxiesToOwner: the proxied response is the owner's, and
// the same key keeps hitting the same peer.
func TestRouterProxiesToOwner(t *testing.T) {
	a := fakePeer(t, "peer-a", &RoleInfo{Role: RoleLeader, Ready: true})
	b := fakePeer(t, "peer-b", &RoleInfo{Role: RoleLeader, Ready: true})
	rt := newTestRouter(t, RouterConfig{Peers: []string{a.URL, b.URL}})
	front := httptest.NewServer(rt)
	defer front.Close()

	got := make(map[string]string)
	for _, key := range []string{"alpha/usage", "beta/usage", "gamma/usage"} {
		var first string
		for i := 0; i < 3; i++ {
			resp, err := http.Get(front.URL + "/v1/c/" + key + "/corpus")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("key %s: status %d", key, resp.StatusCode)
			}
			if first == "" {
				first = string(body)
			} else if string(body) != first {
				t.Fatalf("key %s flapped between %q and %q", key, first, body)
			}
		}
		got[key] = first
	}
	for key, peer := range got {
		if peer != "peer-a" && peer != "peer-b" {
			t.Fatalf("key %s answered by %q", key, peer)
		}
	}
}

// TestRouterRedirectAndFailover: redirect mode answers 307 with the
// owner's URL; an unhealthy owner is routed around via the successor;
// all peers down yields a typed 503.
func TestRouterRedirectAndFailover(t *testing.T) {
	a := fakePeer(t, "peer-a", &RoleInfo{Role: RoleLeader, Ready: true})
	b := fakePeer(t, "peer-b", &RoleInfo{Role: RoleLeader, Ready: true})
	rt := newTestRouter(t, RouterConfig{Peers: []string{a.URL, b.URL}, Redirect: true})
	front := httptest.NewServer(rt)
	defer front.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	resp, err := client.Get(front.URL + "/v1/c/alpha/usage/audit?workers=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect mode answered %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != a.URL+"/v1/c/alpha/usage/audit?workers=2" && loc != b.URL+"/v1/c/alpha/usage/audit?workers=2" {
		t.Fatalf("Location = %q, not an owner URL with the query preserved", loc)
	}
	ownerURL := strings.TrimSuffix(loc, "/v1/c/alpha/usage/audit?workers=2")

	// Kill the owner: its probe now fails, the successor takes over.
	if ownerURL == a.URL {
		a.Close()
	} else {
		b.Close()
	}
	rt.ProbeAll()
	resp, err = client.Get(front.URL + "/v1/c/alpha/usage/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("after owner death: %d, want 307 to the successor", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); strings.HasPrefix(got, ownerURL) {
		t.Fatalf("after owner death still redirected to it: %q", got)
	}

	// Kill the survivor too: typed 503.
	a.Close()
	b.Close()
	rt.ProbeAll()
	resp, err = client.Get(front.URL + "/v1/c/alpha/usage/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no peers: %d, want 503", resp.StatusCode)
	}
	var body errBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "unavailable" {
		t.Fatalf("no peers: kind %q, want unavailable", body.Kind)
	}
	if rt.Ready() {
		t.Fatal("router with no peers reports ready")
	}
}

// TestRouterClusterView: /v1/cluster lists every peer with its probed
// role.
func TestRouterClusterView(t *testing.T) {
	leader := fakePeer(t, "leader", &RoleInfo{Role: RoleLeader, Ready: true, Seq: 42})
	follower := fakePeer(t, "follower", &RoleInfo{Role: RoleFollower, Ready: false, LagSeqs: 7})
	rt := newTestRouter(t, RouterConfig{Peers: []string{leader.URL, follower.URL}})

	rec := httptest.NewRecorder()
	rt.HandleCluster(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	var view struct {
		Role  string       `json:"role"`
		Peers []PeerStatus `json:"peers"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Role != RoleRouter || len(view.Peers) != 2 {
		t.Fatalf("cluster view role=%q peers=%d", view.Role, len(view.Peers))
	}
	byAddr := make(map[string]PeerStatus)
	for _, p := range view.Peers {
		byAddr[p.Addr] = p
	}
	if p := byAddr[leader.URL]; !p.Healthy || p.Role != RoleLeader || p.Seq != 42 {
		t.Fatalf("leader row %+v", p)
	}
	if p := byAddr[follower.URL]; !p.Healthy || p.Role != RoleFollower || p.Ready || p.LagSeqs != 7 {
		t.Fatalf("follower row %+v", p)
	}
	// A lagging follower must not serve reads.
	rr := httptest.NewRequest(http.MethodGet, "/v1/c/k/usage/corpus", nil)
	for i := 0; i < 20; i++ {
		peer, ok := rt.Route(rr)
		if !ok || peer == follower.URL {
			t.Fatalf("read routed to unready follower (peer=%q ok=%v)", peer, ok)
		}
	}
}

// TestRouterProxyReusesCopyBuffers proxies GETs through a router to an
// httptest leader and compares the bytes allocated per request with a
// router whose proxies have no BufferPool. The shared pool saves the
// 32 KiB copy buffer a proxy otherwise allocates per response, less the
// odd miss when a request runs on another P than the buffer was put
// back on: the bar is seven eighths of the buffer. The race detector's
// sync.Pool drops a quarter of what it is given, so under it the bar is
// half the buffer.
func TestRouterProxyReusesCopyBuffers(t *testing.T) {
	leader := fakePeer(t, "leader", &RoleInfo{Role: RoleLeader, Ready: true})
	perRequest := func(rt *Router) float64 {
		t.Helper()
		front := httptest.NewServer(rt)
		defer front.Close()
		client := front.Client()
		get := func() {
			resp, err := client.Get(front.URL + "/v1/c/alpha/usage/corpus")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("proxied GET: status %d", resp.StatusCode)
			}
		}
		for range 20 { // open the connections and fill the pool
			get()
		}
		// No collection while measuring: one would empty the pool.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			get()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	pooled := newTestRouter(t, RouterConfig{Peers: []string{leader.URL}})
	unpooled := newTestRouter(t, RouterConfig{Peers: []string{leader.URL}})
	for _, p := range unpooled.proxies {
		p.BufferPool = nil
	}
	with, without := perRequest(pooled), perRequest(unpooled)
	want := float64(proxyBufSize) * 7 / 8
	if raceEnabled {
		want = proxyBufSize / 2
	}
	if without-with < want {
		t.Fatalf("%.0f bytes allocated per proxied request with the pool, %.0f without: saved %.0f, want at least %.0f",
			with, without, without-with, want)
	}
}
