package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/wal"
)

// newClusterTestServer builds a single-corpus server over a tiny-segment WAL
// so replication tests cross rotation boundaries quickly.
func newClusterTestServer(t *testing.T) (*server, *httptest.Server, *license.Example1) {
	t.Helper()
	ex := license.NewExample1()
	opts := wal.Options{SegmentBytes: 16 + 6*24}
	store, err := wal.Open(filepath.Join(t.TempDir(), "wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := newServer(ex.Corpus, store, engine.ModeOnline, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.walOpts = opts
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts, ex
}

// startTestFollower attaches the follower role exactly as run() does.
// The returned stop cancels the background fetch loop; tests that need
// deterministic lag call it (and wait on Done) before issuing, then
// drive Sync/FetchOnce by hand.
func startTestFollower(t *testing.T, srv *server, leaderURL string, maxLagSeqs int64, fetchBytes int) (stop func()) {
	t.Helper()
	stop, err := srv.startFollower(clusterFlags{
		leader:        leaderURL,
		fetchInterval: time.Hour,
		maxLagSeqs:    maxLagSeqs,
		fetchBytes:    fetchBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return stop
}

// quiesce stops the follower's background loop so manual fetches are
// the only replication traffic.
func quiesce(srv *server, stop func()) {
	stop()
	<-srv.follower.Done()
}

func issueN(t *testing.T, url string, ex *license.Example1, count int64) {
	t.Helper()
	var resp issueResponse
	code := postJSON(t, url+"/v1/issue", issueRequest{Values: usageValues(ex), Count: count}, &resp)
	if code != http.StatusOK {
		t.Fatalf("issue on %s: status %d", url, code)
	}
}

// TestFollowerServesReadsRefusesWritesThenPromotes is the server-level
// leader/follower walkthrough: issues land on the leader, ship to the
// follower, the follower's stats/audit/headroom stay warm while its
// writes answer typed 403s, and POST /v1/promote flips it writable.
func TestFollowerServesReadsRefusesWritesThenPromotes(t *testing.T) {
	lsrv, lts, lex := newClusterTestServer(t)
	lsrv.role = cluster.RoleLeader
	fsrv, fts, _ := newClusterTestServer(t)
	startTestFollower(t, fsrv, lts.URL, 0, 0)

	issueN(t, lts.URL, lex, 5)
	issueN(t, lts.URL, lex, 7)
	if err := fsrv.follower.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Replicated state is warm: stats match the leader's.
	var lst, fst statsResponse
	getJSON(t, lts.URL+"/v1/stats", &lst)
	getJSON(t, fts.URL+"/v1/stats", &fst)
	if fst.Issued != lst.Issued || fst.IssuedCounts != lst.IssuedCounts {
		t.Fatalf("follower stats %+v, leader %+v", fst, lst)
	}
	if fst.IssuedCounts != 12 {
		t.Fatalf("follower issued counts = %d, want 12", fst.IssuedCounts)
	}
	var audit auditResponse
	if code := getJSON(t, fts.URL+"/v1/audit", &audit); code != http.StatusOK || !audit.OK {
		t.Fatalf("follower audit: code %d ok %v", code, audit.OK)
	}
	if code := getJSON(t, fts.URL+"/v1/headroom", nil); code != http.StatusOK {
		t.Fatalf("follower headroom: %d", code)
	}

	// Writes answer the typed read-only 403.
	var eb errorBody
	fex := license.NewExample1()
	code := postJSON(t, fts.URL+"/v1/issue", issueRequest{Values: usageValues(fex), Count: 1}, &eb)
	if code != http.StatusForbidden || eb.Kind != "read_only" {
		t.Fatalf("follower issue: code %d kind %q, want 403 read_only", code, eb.Kind)
	}

	// Role probes and status see the follower.
	var info cluster.RoleInfo
	getJSON(t, fts.URL+"/v1/repl/role", &info)
	if info.Role != cluster.RoleFollower || !info.Ready || info.Leader != lts.URL {
		t.Fatalf("follower role = %+v", info)
	}
	getJSON(t, lts.URL+"/v1/repl/role", &info)
	if info.Role != cluster.RoleLeader || !info.Ready || info.Seq == 0 {
		t.Fatalf("leader role = %+v", info)
	}
	var st statusResponse
	getJSON(t, fts.URL+"/v1/status", &st)
	if st.Replication == nil || st.Replication.Role != cluster.RoleFollower {
		t.Fatalf("follower status replication = %+v", st.Replication)
	}

	// Promote: idempotent, flips writable, role changes.
	var promoted struct {
		Role    string      `json:"role"`
		Already bool        `json:"already_promoted"`
		Lag     cluster.Lag `json:"lag"`
	}
	if code := postJSON(t, fts.URL+"/v1/promote", nil, &promoted); code != http.StatusOK {
		t.Fatalf("promote: %d", code)
	}
	if promoted.Role != cluster.RoleLeader || promoted.Already || promoted.Lag.Seqs != 0 {
		t.Fatalf("promote response %+v", promoted)
	}
	if code := postJSON(t, fts.URL+"/v1/promote", nil, &promoted); code != http.StatusOK || !promoted.Already {
		t.Fatalf("re-promote: code %d already %v", code, promoted.Already)
	}
	getJSON(t, fts.URL+"/v1/repl/role", &info)
	if info.Role != cluster.RoleLeader || !info.Ready {
		t.Fatalf("promoted role = %+v", info)
	}
	issueN(t, fts.URL, fex, 3)
	getJSON(t, fts.URL+"/v1/stats", &fst)
	if fst.IssuedCounts != 15 {
		t.Fatalf("post-promotion issued counts = %d, want 15", fst.IssuedCounts)
	}

	// A non-follower refuses promotion.
	if code := postJSON(t, lts.URL+"/v1/promote", nil, nil); code != http.StatusConflict {
		t.Fatalf("promote on leader: %d, want 409", code)
	}
}

// TestFollowerReadyzReportsTypedLag: a follower beyond -max-lag answers
// readyz 503 with the typed {error, kind: replica_lag} body, and
// recovers to 200 after catching up.
func TestFollowerReadyzReportsTypedLag(t *testing.T) {
	lsrv, lts, lex := newClusterTestServer(t)
	lsrv.role = cluster.RoleLeader
	fsrv, fts, _ := newClusterTestServer(t)
	stop := startTestFollower(t, fsrv, lts.URL, 2, 24)
	quiesce(fsrv, stop)

	issueN(t, lts.URL, lex, 1)
	issueN(t, lts.URL, lex, 1)
	issueN(t, lts.URL, lex, 1)
	issueN(t, lts.URL, lex, 1)
	// One bounded fetch (24 bytes = one frame) learns the leader
	// frontier without draining it: lag is now visible and beyond the
	// bound of 2.
	if _, err := fsrv.follower.FetchOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if code := getJSON(t, fts.URL+"/v1/readyz", &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("lagging readyz: %d, want 503", code)
	}
	if eb.Kind != drmerr.KindReplicaLag.String() {
		t.Fatalf("lagging readyz kind = %q, want replica_lag", eb.Kind)
	}
	var info cluster.RoleInfo
	getJSON(t, fts.URL+"/v1/repl/role", &info)
	if info.Ready || info.LagSeqs == 0 {
		t.Fatalf("lagging role = %+v", info)
	}

	if err := fsrv.follower.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ok map[string]string
	if code := getJSON(t, fts.URL+"/v1/readyz", &ok); code != http.StatusOK || ok["status"] != "ready" {
		t.Fatalf("caught-up readyz: code %d body %v", code, ok)
	}
}

// TestFollowerRebootstrapSwapsServingState: when the leader compacts
// past the follower's cursor, the follower re-bootstraps from the
// leader snapshot and the server swaps distributor and store behind the
// mounted routes — stats converge and writes stay read-only.
func TestFollowerRebootstrapSwapsServingState(t *testing.T) {
	lsrv, lts, lex := newClusterTestServer(t)
	lsrv.role = cluster.RoleLeader
	fsrv, fts, _ := newClusterTestServer(t)
	stop := startTestFollower(t, fsrv, lts.URL, 0, 0)
	quiesce(fsrv, stop)
	before := fsrv.currentAPI().wal

	// Eight records seal the first tiny segment (six frames per
	// segment); the snapshot then covers it entirely, so Compact retires
	// it and the dormant follower's start cursor points into history
	// that no longer exists as segments. Snapshot already starts a
	// background Compact that may win the race, so what the explicit one
	// guarantees is the genesis segment's absence, not its own count.
	for i := 0; i < 8; i++ {
		issueN(t, lts.URL, lex, 1)
	}
	lw := lsrv.currentAPI().wal
	if _, err := lw.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := lw.Compact(); err != nil {
		t.Fatal(err)
	}
	genesis := filepath.Join(lw.Dir(), fmt.Sprintf("%016d.seg", 1))
	if _, err := os.Stat(genesis); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("genesis segment survived compaction (stat err %v); the re-bootstrap path is not exercised", err)
	}
	issueN(t, lts.URL, lex, 1)
	issueN(t, lts.URL, lex, 1)

	if err := fsrv.follower.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := fsrv.currentAPI().wal
	if after == before {
		t.Fatal("re-bootstrap did not swap the follower's store")
	}
	if fsrv.follower.Store() != after {
		t.Fatal("follower and server disagree on the live store")
	}
	// Stats counters are per-process and reset with the rebuilt
	// distributor: only the post-bootstrap tail feeds them. The ledger
	// state is what must agree — audit verdict and headroom slack.
	var fst statsResponse
	getJSON(t, fts.URL+"/v1/stats", &fst)
	if fst.Issued != 2 {
		t.Fatalf("after re-bootstrap: follower applied %d tail records, want 2", fst.Issued)
	}
	var audit auditResponse
	if code := getJSON(t, fts.URL+"/v1/audit", &audit); code != http.StatusOK || !audit.OK {
		t.Fatalf("follower audit after re-bootstrap: code %d ok %v", code, audit.OK)
	}
	var lhr, fhr headroomResponse
	getJSON(t, lts.URL+"/v1/headroom", &lhr)
	getJSON(t, fts.URL+"/v1/headroom", &fhr)
	if !reflect.DeepEqual(lhr, fhr) {
		t.Fatalf("headroom diverged after re-bootstrap:\nleader   %+v\nfollower %+v", lhr, fhr)
	}
	var eb errorBody
	fex := license.NewExample1()
	code := postJSON(t, fts.URL+"/v1/issue", issueRequest{Values: usageValues(fex), Count: 1}, &eb)
	if code != http.StatusForbidden || eb.Kind != "read_only" {
		t.Fatalf("post-re-bootstrap issue: code %d kind %q, want 403 read_only", code, eb.Kind)
	}
	if seq := after.Seq(); seq != lsrv.currentAPI().wal.Seq() {
		t.Fatalf("follower seq %d != leader seq %d", seq, lsrv.currentAPI().wal.Seq())
	}
}

// TestStandaloneRoleProbe: a server with no cluster wiring answers the
// role probe as a ready standalone — what routers expect from legacy
// peers.
func TestStandaloneRoleProbe(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	var info cluster.RoleInfo
	if code := getJSON(t, ts.URL+"/v1/repl/role", &info); code != http.StatusOK {
		t.Fatalf("role probe: %d", code)
	}
	if info.Role != cluster.RoleStandalone || !info.Ready {
		t.Fatalf("standalone role = %+v", info)
	}
	// Every server's log is a WAL, so a standalone ships frames too.
	if code := getJSON(t, ts.URL+"/v1/repl/wal?segment=1&offset=16&seq=0", nil); code != http.StatusOK {
		t.Fatalf("standalone repl/wal: %d, want 200", code)
	}
}
