package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

func TestSnapshotEndpointWAL(t *testing.T) {
	srv, ex := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		req := issueRequest{Values: usageValues(ex), Count: 10}
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue status = %d", code)
		}
	}
	var info wal.SnapshotInfo
	if code := postJSON(t, ts.URL+"/v1/snapshot", nil, &info); code != http.StatusOK {
		t.Fatalf("snapshot status = %d", code)
	}
	if info.Seq != 3 {
		t.Errorf("snapshot seq = %d, want 3", info.Seq)
	}
	if got := srv.currentAPI().wal.SnapshotSeq(); got != 3 {
		t.Errorf("store SnapshotSeq = %d, want 3", got)
	}
	// Issuance keeps working after the checkpoint, and the audit still
	// sees the whole history.
	req := issueRequest{Values: usageValues(ex), Count: 10}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("issue after snapshot status = %d", code)
	}
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit", &audit); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}
	if !audit.OK {
		t.Errorf("audit after snapshot = %+v", audit)
	}
}
