package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/engine"
	"repro/internal/license"
)

// TestHeadroomEndpoint checks the admission-cache debug view: after two
// online issuances the per-group summaries expose the slack state, and
// the drm_headroom_* families move on /metrics.
func TestHeadroomEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	u2 := ex.Usage2.Rect
	iv := u2.Value(0).Interval()
	lo, hi := iv.Lo, iv.Hi
	for _, req := range []issueRequest{
		{Values: usageValues(ex), Count: 800},
		{Values: []license.ValueDoc{{Lo: &lo, Hi: &hi}, {Set: u2.Value(1).Set().Elems()}}, Count: 400},
	} {
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue status = %d", code)
		}
	}
	var body headroomResponse
	if code := getJSON(t, ts.URL+"/v1/headroom", &body); code != http.StatusOK {
		t.Fatalf("headroom status = %d", code)
	}
	// Admission reserves nothing, so there is no pending count to show.
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/headroom", &raw)
	if _, ok := raw["pending"]; ok {
		t.Errorf("headroom body still reports pending: %s", raw["pending"])
	}
	if len(body.Groups) == 0 {
		t.Fatal("no group summaries")
	}
	observed, bounded := 0, 0
	for _, g := range body.Groups {
		observed += g.ObservedSets
		if !g.Unbounded {
			bounded++
			if g.MinSlack < 0 {
				t.Errorf("group %d min slack %d < 0 in an online-guarded log", g.Group, g.MinSlack)
			}
		}
	}
	if observed == 0 || bounded == 0 {
		t.Fatalf("summaries show no issuance state: %+v", body.Groups)
	}

	// A clean audit runs the cache verifier; then the metric families the
	// cache owns must all be live on /metrics.
	if code := getJSON(t, ts.URL+"/v1/audit", nil); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}
	series := scrape(t, ts.URL+"/metrics")
	if got := series[`drm_headroom_checks_total`]; got != 2 {
		t.Errorf("headroom checks = %v, want 2", got)
	}
	if got := series[`drm_headroom_admitted_total`]; got != 2 {
		t.Errorf("headroom admitted = %v, want 2", got)
	}
	if got := series[`drm_headroom_verify_total`]; got != 1 {
		t.Errorf("headroom verifies = %v, want 1 after one clean audit", got)
	}
	if got := series[`drm_headroom_divergence_total`]; got != 0 {
		t.Errorf("headroom divergence = %v, want 0", got)
	}
	if got := series[`drm_headroom_groups`]; got <= 0 {
		t.Errorf("headroom groups gauge = %v, want > 0", got)
	}
}

// TestCatalogHeadroomRoute serves the same view per catalog entry.
func TestCatalogHeadroomRoute(t *testing.T) {
	ts, ex := newCatalogTestServer(t)
	req := issueRequest{Values: usageValues(ex), Count: 10}
	if code := postJSON(t, ts.URL+"/v1/c/K/play/issue", req, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	var body headroomResponse
	if code := getJSON(t, ts.URL+"/v1/c/K/play/headroom", &body); code != http.StatusOK {
		t.Fatalf("headroom status = %d", code)
	}
	if len(body.Groups) == 0 {
		t.Fatal("no group summaries for catalog entry")
	}
	if code := getJSON(t, ts.URL+"/v1/c/missing/play/headroom", nil); code != http.StatusNotFound {
		t.Fatalf("unknown entry status = %d, want 404", code)
	}
}
