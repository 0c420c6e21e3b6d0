package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/drmerr"
	"repro/internal/engine"
	"repro/internal/license"
)

// newTimeoutServer is newTestServer with the request-timeout middleware
// wrapped around the routes, as serve() does with -request-timeout.
func newTimeoutServer(t *testing.T, d time.Duration) (*httptest.Server, *license.Example1) {
	t.Helper()
	srv, ex := testServer(t, engine.ModeOffline)
	ts := httptest.NewServer(withRequestTimeout(srv.routes(), d))
	t.Cleanup(ts.Close)
	return ts, ex
}

func TestWithRequestTimeoutDisabled(t *testing.T) {
	// A non-positive -request-timeout must be a strict pass-through, not a
	// wrapper with an infinite deadline.
	h := http.NewServeMux()
	if got := withRequestTimeout(h, 0); got != http.Handler(h) {
		t.Error("withRequestTimeout(h, 0) wrapped the handler")
	}
	if got := withRequestTimeout(h, -time.Second); got != http.Handler(h) {
		t.Error("withRequestTimeout(h, -1s) wrapped the handler")
	}
}

func TestRequestTimeoutCutsAudit(t *testing.T) {
	ts, ex := newTimeoutServer(t, time.Nanosecond)
	// The deadline is spent before the handler runs, so the audit is cut
	// short either during log replay (499, kind "cancelled") or during the
	// equation walk (504, kind "incomplete"). Both carry a taxonomy body;
	// neither may claim a complete verdict.
	_ = ex
	var audit auditResponse
	code := getJSON(t, ts.URL+"/v1/audit", &audit)
	switch code {
	case drmerr.StatusClientClosedRequest:
		if audit.Kind != drmerr.KindCancelled.String() {
			t.Errorf("kind = %q, want %v", audit.Kind, drmerr.KindCancelled)
		}
	case http.StatusGatewayTimeout:
		if audit.Kind != drmerr.KindIncomplete.String() {
			t.Errorf("kind = %q, want %v", audit.Kind, drmerr.KindIncomplete)
		}
		if audit.Complete {
			t.Error("deadline-cut audit claims complete=true")
		}
	default:
		t.Fatalf("status = %d, want 499 or 504", code)
	}
	if audit.Error == "" {
		t.Error("timed-out audit body has no error message")
	}
}

func TestRequestTimeoutCutsIssue(t *testing.T) {
	ts, ex := newTimeoutServer(t, time.Nanosecond)
	req := issueRequest{Values: usageValues(ex), Count: 5}
	var e errorBody
	code := postJSON(t, ts.URL+"/v1/issue", req, &e)
	if code != drmerr.StatusClientClosedRequest {
		t.Fatalf("status = %d, want 499", code)
	}
	if e.Kind != drmerr.KindCancelled.String() {
		t.Errorf("kind = %q, want %v", e.Kind, drmerr.KindCancelled)
	}
}

func TestRequestTimeoutGenerousPassesThrough(t *testing.T) {
	// A realistic budget leaves the whole issue→audit flow untouched.
	ts, ex := newTimeoutServer(t, time.Minute)
	req := issueRequest{Values: usageValues(ex), Count: 800}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit", &audit); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}
	if !audit.Complete || audit.GroupsComplete != 2 {
		t.Errorf("audit = %+v, want complete with 2 groups", audit)
	}
}

func TestWriteErrorTaxonomyBodies(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{drmerr.Incomplete("core.audit", context.DeadlineExceeded),
			http.StatusGatewayTimeout, "incomplete"},
		{drmerr.Wrap(drmerr.KindCancelled, "engine.issue", context.Canceled),
			drmerr.StatusClientClosedRequest, "cancelled"},
		{drmerr.New(drmerr.KindViolation, "engine.issue", "aggregate exhausted"),
			http.StatusConflict, "violation"},
		{drmerr.New(drmerr.KindStoreCorrupt, "logstore.read", "bad line"),
			http.StatusServiceUnavailable, "store_corrupt"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeError(context.Background(), rec, c.err)
		if rec.Code != c.status {
			t.Errorf("writeError(%v) status = %d, want %d", c.err, rec.Code, c.status)
		}
		var e errorBody
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != c.kind || e.Error == "" {
			t.Errorf("writeError(%v) body = %+v, want kind %q", c.err, e, c.kind)
		}
	}
}
