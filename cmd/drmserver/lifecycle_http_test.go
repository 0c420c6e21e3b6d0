package main

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/license"
)

// TestLifecycleFlow walks the full ledger over HTTP: issue → transfer →
// revoke → over-revoke (409 ledger_unsound) → audit still clean, with
// /v1/stats tracking every operation.
func TestLifecycleFlow(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	vals := usageValues(ex)
	if code := postJSON(t, ts.URL+"/v1/issue", issueRequest{Values: vals, Count: 800}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	var lr lifecycleResponse
	if code := postJSON(t, ts.URL+"/v1/transfer", lifecycleRequest{Values: vals, Count: 300}, &lr); code != http.StatusOK {
		t.Fatalf("transfer status = %d", code)
	}
	if lr.Op != "transfer" || lr.Count != 300 || len(lr.BelongsTo) != 2 {
		t.Fatalf("transfer response = %+v", lr)
	}
	if code := postJSON(t, ts.URL+"/v1/revoke", lifecycleRequest{Values: vals, Count: 500}, &lr); code != http.StatusOK {
		t.Fatalf("revoke status = %d", code)
	}
	// Net outstanding is 300 now; revoking 400 is refused as unsound.
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/revoke", lifecycleRequest{Values: vals, Count: 400}, &e); code != http.StatusConflict {
		t.Fatalf("over-revoke status = %d, want 409", code)
	}
	if e.Kind != "ledger_unsound" {
		t.Fatalf("over-revoke kind = %q, want ledger_unsound", e.Kind)
	}
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit", &audit); code != http.StatusOK || !audit.OK {
		t.Fatalf("audit = %+v (status %d)", audit, code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Issued != 1 || st.Revoked != 1 || st.RevokedCounts != 500 ||
		st.Transferred != 1 || st.TransferredCounts != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExpireEndpoint issues a TTL-carrying license, sweeps past its
// expiry via POST /v1/expire with an explicit now, and checks the
// debits land in the stats.
func TestExpireEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	base := time.Now().Unix()
	req := issueRequest{Values: usageValues(ex), Count: 120, Expiry: base + 30}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("ttl issue status = %d", code)
	}
	// A sweep before the expiry finds nothing.
	var res engine.SweepResult
	if code := postJSON(t, ts.URL+"/v1/expire", expireRequest{Now: base + 10}, &res); code != http.StatusOK {
		t.Fatalf("early sweep status = %d", code)
	}
	if res.Records != 0 {
		t.Fatalf("early sweep = %+v, want empty", res)
	}
	if code := postJSON(t, ts.URL+"/v1/expire", expireRequest{Now: base + 30}, &res); code != http.StatusOK {
		t.Fatalf("sweep status = %d", code)
	}
	if res.Records != 1 || res.Counts != 120 {
		t.Fatalf("sweep = %+v, want 1 record of 120", res)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Expired != 1 || st.ExpiredCounts != 120 {
		t.Fatalf("stats = %+v, want 1 expiry of 120", st)
	}
}

// TestSweeperSkipsReadOnly: a follower's distributor is read-only, so
// the sweeper's tick skips it, logging nothing at ERROR and appending
// nothing; after promotion clears the gate, one tick debits the due
// bucket.
func TestSweeperSkipsReadOnly(t *testing.T) {
	var logBuf syncBuffer
	oldLogger := logger
	logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	t.Cleanup(func() { logger = oldLogger })

	srv, ex := testServer(t, engine.ModeOnline)
	api := srv.currentAPI()
	ctx := context.Background()
	// Expiry 1 (Unix seconds) is long past: the bucket is due now.
	if _, err := api.dist.IssueTTLContext(ctx, license.Usage, ex.Usage1.Rect, 40, 1); err != nil {
		t.Fatal(err)
	}
	seq := api.wal.Seq()

	api.dist.SetReadOnly(true)
	srv.sweepExpired(ctx)
	if strings.Contains(logBuf.String(), "level=ERROR") {
		t.Errorf("read-only tick logged an error:\n%s", logBuf.String())
	}
	if got := api.wal.Seq(); got != seq {
		t.Errorf("read-only tick appended: seq %d -> %d", seq, got)
	}
	// An explicit sweep on the replica is still refused, typed.
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/expire", expireRequest{}, &e); code != http.StatusForbidden || e.Kind != "read_only" {
		t.Errorf("POST /v1/expire on a replica = %d %q, want 403 read_only", code, e.Kind)
	}

	api.dist.SetReadOnly(false)
	srv.sweepExpired(ctx)
	if st := api.dist.Stats(); st.Expired != 1 || st.ExpiredCounts != 40 {
		t.Errorf("promoted tick: stats = %+v, want 1 expiry of 40", st)
	}
	if got := api.wal.Seq(); got != seq+1 {
		t.Errorf("promoted tick: seq %d -> %d, want one expire record", seq, got)
	}
}

// TestLifecycleInstanceRejection maps a rectangle outside every license
// to 422 for both lifecycle verbs.
func TestLifecycleInstanceRejection(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	lo, hi := int64(0), int64(1)
	req := lifecycleRequest{
		Values: []license.ValueDoc{{Lo: &lo, Hi: &hi}, {Set: []int{0}}},
		Count:  10,
	}
	for _, ep := range []string{"/v1/revoke", "/v1/transfer"} {
		var e errorBody
		if code := postJSON(t, ts.URL+ep, req, &e); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s status = %d, want 422", ep, code)
		}
		if e.Kind != "instance_invalid" {
			t.Fatalf("%s kind = %q, want instance_invalid", ep, e.Kind)
		}
	}
}
