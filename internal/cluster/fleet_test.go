package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// tracedWith is a minimal stand-in for the server's tracing middleware:
// extract an upstream traceparent if present, root a span, run next.
// An empty name mirrors the router's catch-all (named per request).
func tracedWith(tr *trace.Tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := name
		if n == "" {
			n = r.Method + " " + r.URL.Path
		}
		var ctx context.Context
		var sp *trace.Span
		if rp, ok := trace.Extract(r.Header); ok {
			ctx, sp = tr.RootRemote(r.Context(), n, rp)
		} else {
			ctx, sp = tr.Root(r.Context(), n)
		}
		next.ServeHTTP(w, r.WithContext(ctx))
		sp.End()
	})
}

// TestRouterTracePropagationE2E is the cross-process tracing e2e: a
// traced request through the router must retain a fragment with ONE
// trace ID in both the router's and the peer's rings, and the merged
// /v1/cluster/traces/{id} document must carry both process lanes.
func TestRouterTracePropagationE2E(t *testing.T) {
	// "Leader" process: its own tracer, extract middleware, debug ring.
	leaderTracer := trace.New(trace.Options{Capacity: 16})
	lmux := http.NewServeMux()
	lmux.HandleFunc("/v1/repl/role", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, RoleInfo{Role: RoleLeader, Ready: true})
	})
	lmux.Handle("/debug/traces/", leaderTracer.Handler())
	lmux.Handle("/", tracedWith(leaderTracer, "", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			_, sp := trace.Start(r.Context(), "engine.issue")
			sp.End()
			io.WriteString(w, "leader")
		})))
	leader := httptest.NewServer(lmux)
	defer leader.Close()

	// "Router" process: its own tracer, the catch-all proxies, the fleet
	// endpoints merge.
	routerTracer := trace.New(trace.Options{Capacity: 16})
	rt := newTestRouter(t, RouterConfig{
		Peers:      []string{leader.URL},
		LocalName:  "router",
		LocalTrace: routerTracer.Get,
	})
	fmux := http.NewServeMux()
	fmux.HandleFunc("GET /v1/cluster/traces/{id}", rt.HandleClusterTrace)
	fmux.Handle("/", tracedWith(routerTracer, "", rt))
	front := httptest.NewServer(fmux)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/c/alpha/usage/issue", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "leader" {
		t.Fatalf("proxied request: status %d body %q", resp.StatusCode, body)
	}

	sums := routerTracer.Traces()
	if len(sums) != 1 {
		t.Fatalf("router retained %d traces, want 1", len(sums))
	}
	id := sums[0].ID

	// The SAME trace id is retained on both sides of the wire.
	rrec := routerTracer.Get(id)
	lrec := leaderTracer.Get(id)
	if rrec == nil || lrec == nil {
		t.Fatalf("trace %s retained router=%v leader=%v, want both", id, rrec != nil, lrec != nil)
	}
	if rrec.Remote {
		t.Fatal("router fragment wrongly marked remote (it minted the id)")
	}
	if !lrec.Remote || lrec.RemoteParent == "" {
		t.Fatalf("leader fragment not marked remote: %+v", lrec)
	}
	var forward *trace.SpanRecord
	for i := range rrec.Spans {
		if rrec.Spans[i].Name == "router.forward" {
			forward = &rrec.Spans[i]
		}
	}
	if forward == nil {
		t.Fatalf("router fragment has no router.forward span: %+v", rrec.Spans)
	}

	// Merged document: two process lanes, validated by the same decoder
	// tracecheck uses.
	resp, err = http.Get(front.URL + "/v1/cluster/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged trace status %d", resp.StatusCode)
	}
	stats, err := trace.DecodeChromeStats(resp.Body)
	if err != nil {
		t.Fatalf("merged doc invalid: %v", err)
	}
	if stats.Processes < 2 {
		t.Fatalf("merged doc has %d process lanes, want >= 2", stats.Processes)
	}

	// format=json exposes the raw fragments.
	resp, err = http.Get(front.URL + "/v1/cluster/traces/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frag struct {
		TraceID   string `json:"trace_id"`
		Fragments []struct {
			Process string             `json:"process"`
			Trace   *trace.TraceRecord `json:"trace"`
		} `json:"fragments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&frag); err != nil {
		t.Fatal(err)
	}
	if frag.TraceID != id || len(frag.Fragments) != 2 {
		t.Fatalf("fragment doc %+v, want 2 fragments of %s", frag, id)
	}
	if frag.Fragments[0].Process != "router" {
		t.Fatalf("local fragment not first: %q", frag.Fragments[0].Process)
	}

	// An unknown id is a typed 404.
	resp, err = http.Get(front.URL + "/v1/cluster/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", resp.StatusCode)
	}
	var e struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Kind != "not_found" {
		t.Fatalf("unknown trace body kind %q err %v", e.Kind, err)
	}
}

// TestRouterRedirectStampsTraceparent: the 307 path carries the span
// context on the response so a client following the redirect can
// continue the trace.
func TestRouterRedirectStampsTraceparent(t *testing.T) {
	peer := fakePeer(t, "peer", &RoleInfo{Role: RoleLeader, Ready: true})
	rt := newTestRouter(t, RouterConfig{Peers: []string{peer.URL}, Redirect: true})
	tr := trace.New(trace.Options{Capacity: 4})

	ctx, sp := tr.Root(context.Background(), "req")
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/c/alpha/usage/corpus", nil).WithContext(ctx)
	rt.ServeHTTP(rr, req)
	sp.End()
	if rr.Code != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", rr.Code)
	}
	tp := rr.Header().Get(trace.Header)
	if tp == "" {
		t.Fatal("307 response carries no traceparent")
	}
	rp, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("307 traceparent %q invalid", tp)
	}
	if !strings.Contains(tp, sp.TraceID()) {
		t.Fatalf("traceparent %q does not carry trace %s", tp, sp.TraceID())
	}
	if rp.SpanID == 0 {
		t.Fatalf("parsed remote parent %+v has no span id", rp)
	}
}

// TestRouterProxyErrorTypedBody: a dead peer behind a healthy probe
// yields the standard typed error body with the trace id, fails the
// forward span, and counts in the per-peer proxy-error metric.
func TestRouterProxyErrorTypedBody(t *testing.T) {
	Instrument(obs.NewRegistry())
	defer func() { M = Metrics{} }()

	peer := fakePeer(t, "doomed", &RoleInfo{Role: RoleLeader, Ready: true})
	rt := newTestRouter(t, RouterConfig{Peers: []string{peer.URL}})
	tr := trace.New(trace.Options{Capacity: 4})
	front := httptest.NewServer(tracedWith(tr, "", rt))
	defer front.Close()

	peer.Close() // probed healthy, now gone: the proxy round-trip fails

	resp, err := http.Post(front.URL+"/v1/c/alpha/usage/issue", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var body errBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("proxy error body not JSON: %v", err)
	}
	if body.Kind != "unavailable" || body.Error == "" {
		t.Fatalf("body %+v, want kind unavailable", body)
	}
	if body.TraceID == "" {
		t.Fatal("proxy error body carries no trace_id")
	}
	rec := tr.Get(body.TraceID)
	if rec == nil {
		t.Fatal("failed forward's trace not retained")
	}
	var failed bool
	for _, sp := range rec.Spans {
		if sp.Name == "router.forward" && sp.Error != "" {
			failed = true
		}
	}
	if !failed {
		t.Fatalf("router.forward span not failed: %+v", rec.Spans)
	}
	if got := M.RouterProxyErrors.With(peer.URL).Value(); got != 1 {
		t.Fatalf("proxy errors for %s = %d, want 1", peer.URL, got)
	}
}

// statusPeer serves a canned /v1/status document plus the role probe.
func statusPeer(t *testing.T, role RoleInfo, doc any) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/role", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, role)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, doc)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterFleetStatusAggregation: /v1/cluster/status folds reachable
// peers' status docs into topology + lag + SLO rollups, and reports
// unreachable peers instead of failing the sweep.
func TestRouterFleetStatusAggregation(t *testing.T) {
	leaderDoc := map[string]any{
		"service":     map[string]any{"mode": "corpus", "uptime_seconds": 12.5, "log_records": 100},
		"replication": map[string]any{"role": "leader", "ready": true, "seq": 42},
		"slo": map[string]any{"objectives": []any{map[string]any{
			"name": "availability", "budget_remaining": 0.9,
			"windows": []any{map[string]any{"window": "5m", "burn_rate": 0.4}},
			"alerts":  []any{map[string]any{"severity": "page", "firing": false}},
		}}},
	}
	followerDoc := map[string]any{
		"service":     map[string]any{"mode": "corpus", "uptime_seconds": 11.0, "log_records": 98},
		"replication": map[string]any{"role": "follower", "ready": true, "seq": 40, "lag_seqs": 2, "lag_seconds": 0.5},
		"slo": map[string]any{"objectives": []any{map[string]any{
			"name": "availability", "budget_remaining": 0.1,
			"windows": []any{map[string]any{"window": "5m", "burn_rate": 2.5}},
			"alerts":  []any{map[string]any{"severity": "page", "firing": true}},
		}}},
	}
	lp := statusPeer(t, RoleInfo{Role: RoleLeader, Ready: true, Seq: 42}, leaderDoc)
	fp := statusPeer(t, RoleInfo{Role: RoleFollower, Ready: true, Seq: 40, LagSeqs: 2}, followerDoc)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt := newTestRouter(t, RouterConfig{Peers: []string{lp.URL, fp.URL, deadURL}})
	st := rt.FleetView(context.Background())

	s := st.Summary
	if s.Peers != 3 || s.Reachable != 2 {
		t.Fatalf("summary %+v, want 3 peers 2 reachable", s)
	}
	if s.Leaders != 1 || s.Followers != 1 || s.Ready != 2 {
		t.Fatalf("summary topology %+v", s)
	}
	if s.MaxLagSeqs != 2 {
		t.Fatalf("max lag %d, want 2", s.MaxLagSeqs)
	}
	if s.WorstBurnRate != 2.5 {
		t.Fatalf("worst burn %v, want 2.5", s.WorstBurnRate)
	}
	if s.FiringAlerts != 1 {
		t.Fatalf("firing alerts %d, want 1", s.FiringAlerts)
	}

	byAddr := map[string]FleetPeer{}
	for _, p := range st.Peers {
		byAddr[p.Addr] = p
	}
	if p := byAddr[lp.URL]; !p.Reachable || p.Role != RoleLeader || p.Seq != 42 || p.LogRecords != 100 {
		t.Fatalf("leader row %+v", p)
	}
	if p := byAddr[fp.URL]; !p.Reachable || p.LagSeqs != 2 ||
		len(p.FiringAlerts) != 1 || p.FiringAlerts[0] != "availability/page" {
		t.Fatalf("follower row %+v", p)
	}
	if p := byAddr[deadURL]; p.Reachable || p.Error == "" {
		t.Fatalf("dead row %+v, want unreachable with error", p)
	}

	// The HTTP handler: JSON default, text pane on ?format=text.
	rr := httptest.NewRecorder()
	rt.HandleClusterStatus(rr, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
	var round FleetStatus
	if err := json.NewDecoder(rr.Body).Decode(&round); err != nil {
		t.Fatal(err)
	}
	if round.Role != RoleRouter || round.Summary != s {
		t.Fatalf("handler JSON %+v", round)
	}
	rr = httptest.NewRecorder()
	rt.HandleClusterStatus(rr, httptest.NewRequest(http.MethodGet, "/v1/cluster/status?format=text", nil))
	text := rr.Body.String()
	for _, want := range []string{"3 peers (2 reachable)", "UNREACHABLE", "leader", "follower", "availability/page"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text pane missing %q:\n%s", want, text)
		}
	}
}

// TestFollowerFetchInjectsTraceparent: a traced follower's WAL fetch
// carries its repl.fetch span to the leader; an untraced follower sends
// no header.
func TestFollowerFetchInjectsTraceparent(t *testing.T) {
	var got string
	calls := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(trace.Header)
		calls++
		serveWindow(w, wal.StartCursor(), wal.StartCursor(), 0, nil)
	})
	leader := httptest.NewServer(mux)
	defer leader.Close()

	store, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	tr := trace.New(trace.Options{Capacity: 4})
	f, err := NewFollower(FollowerConfig{Leader: leader.URL, Store: store, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.FetchOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || got == "" {
		t.Fatalf("leader saw %d calls, traceparent %q — want an injected header", calls, got)
	}
	if _, ok := trace.ParseTraceparent(got); !ok {
		t.Fatalf("injected traceparent %q invalid", got)
	}
	sums := tr.Traces()
	if len(sums) != 1 || sums[0].Name != "repl.fetch" {
		t.Fatalf("follower retained %+v, want one repl.fetch trace", sums)
	}
	rec := tr.Get(sums[0].ID)
	if rec == nil {
		t.Fatal("repl.fetch trace not in ring")
	}
	wire := "00-0000000000000000" + sums[0].ID + "-"
	if !strings.HasPrefix(got, wire) {
		t.Fatalf("header %q does not carry the retained trace id %s", got, sums[0].ID)
	}

	// Untraced follower: no header on the wire.
	got = ""
	f2, err := NewFollower(FollowerConfig{Leader: leader.URL, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.FetchOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Fatalf("untraced fetch sent traceparent %q", got)
	}
}
