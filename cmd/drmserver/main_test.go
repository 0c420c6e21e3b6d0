package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/wal"
)

// testServer wires the paper's Example 1 corpus over a fresh WAL in the
// test's temp dir, as run() does with the flag defaults.
func testServer(tb testing.TB, mode engine.Mode) (*server, *license.Example1) {
	tb.Helper()
	ex := license.NewExample1()
	store, err := wal.Open(filepath.Join(tb.TempDir(), "issued.wal"), wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	srv, err := newServer(ex.Corpus, store, mode, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return srv, ex
}

// newTestServer serves testServer's routes over HTTP.
func newTestServer(t *testing.T, mode engine.Mode) (*httptest.Server, *license.Example1) {
	t.Helper()
	srv, ex := testServer(t, mode)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, ex
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestCorpusEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	resp, err := http.Get(ts.URL + "/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	corpus, err := license.DecodeCorpus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Len() != ex.Corpus.Len() {
		t.Errorf("corpus len = %d, want %d", corpus.Len(), ex.Corpus.Len())
	}
}

func TestGroupsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	var body groupsBody
	if code := getJSON(t, ts.URL+"/v1/groups", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body.Groups) != 2 {
		t.Fatalf("groups = %v", body.Groups)
	}
	if fmt.Sprint(body.Groups[0]) != "[1 2 4]" || fmt.Sprint(body.Groups[1]) != "[3 5]" {
		t.Errorf("groups = %v, want [[1 2 4] [3 5]]", body.Groups)
	}
	if body.Gain < 3.09 || body.Gain > 3.11 {
		t.Errorf("gain = %v, want 3.1", body.Gain)
	}
}

// usageValues builds the wire form of L_U^1's rectangle (period inside
// L1∩L2, region India).
func usageValues(ex *license.Example1) []license.ValueDoc {
	rect := ex.Usage1.Rect
	iv := rect.Value(0).Interval()
	lo, hi := iv.Lo, iv.Hi
	return []license.ValueDoc{
		{Lo: &lo, Hi: &hi},
		{Set: rect.Value(1).Set().Elems()},
	}
}

func TestIssueAndAuditFlow(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	req := issueRequest{Values: usageValues(ex), Count: 800}
	var resp issueResponse
	if code := postJSON(t, ts.URL+"/v1/issue", req, &resp); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	if fmt.Sprint(resp.BelongsTo) != "[1 2]" {
		t.Errorf("belongs_to = %v, want [1 2]", resp.BelongsTo)
	}
	if resp.Count != 800 || resp.Name == "" {
		t.Errorf("response = %+v", resp)
	}
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit", &audit); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}
	if !audit.OK || audit.Groups != 2 || audit.Equations != 10 {
		t.Errorf("audit = %+v", audit)
	}
}

func TestIssueInstanceRejection(t *testing.T) {
	ts, _ := newTestServer(t, engine.ModeOnline)
	lo, hi := int64(0), int64(1) // far outside every license period
	req := issueRequest{
		Values: []license.ValueDoc{{Lo: &lo, Hi: &hi}, {Set: []int{0}}},
		Count:  10,
	}
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/issue", req, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", code)
	}
	if e.Error == "" {
		t.Error("empty error body")
	}
	if e.Kind != "instance_invalid" {
		t.Errorf("kind = %q, want instance_invalid", e.Kind)
	}
}

func TestIssueAggregateRejection(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	// Drain the L1∩L2 headroom (binding equation C⟨{1,2}⟩ ≤ 3000), then
	// one more must 409.
	req := issueRequest{Values: usageValues(ex), Count: 3000}
	if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
		t.Fatalf("drain status = %d", code)
	}
	req.Count = 1
	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/issue", req, &e); code != http.StatusConflict {
		t.Fatalf("status = %d, want 409", code)
	}
	if e.Kind != "violation" {
		t.Errorf("kind = %q, want violation", e.Kind)
	}
	// The audit must still be clean: the violation was prevented.
	var audit auditResponse
	getJSON(t, ts.URL+"/v1/audit", &audit)
	if !audit.OK {
		t.Errorf("audit dirty after rejection: %+v", audit)
	}
}

func TestIssueBadRequests(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	// Broken JSON.
	resp, err := http.Post(ts.URL+"/v1/issue", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON status = %d", resp.StatusCode)
	}
	// Wrong arity.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: nil, Count: 5}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong arity status = %d", code)
	}
	// Unknown kind.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 5, Kind: "weird"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown kind status = %d", code)
	}
	// Non-positive count.
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 0}, nil); code != http.StatusBadRequest {
		t.Errorf("zero count status = %d", code)
	}
}

func TestOfflineModeLogsViolations(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOffline)
	// Offline mode accepts over-issuance...
	req := issueRequest{Values: usageValues(ex), Count: 2900}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("offline issue %d status = %d", i, code)
		}
	}
	// ...and the audit reports it.
	var audit auditResponse
	if code := getJSON(t, ts.URL+"/v1/audit", &audit); code != http.StatusOK {
		t.Fatalf("audit status = %d", code)
	}
	if audit.OK || len(audit.Violations) == 0 {
		t.Errorf("audit = %+v, want violations", audit)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOnline)
	if code := postJSON(t, ts.URL+"/v1/issue",
		issueRequest{Values: usageValues(ex), Count: 500}, nil); code != http.StatusOK {
		t.Fatalf("issue status = %d", code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Licenses != 5 || st.Groups != 2 || st.Issued != 1 || st.IssuedCounts != 500 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentReadsAndIssues hammers the read endpoints (corpus,
// groups, stats, audit) while issuances run, so the race detector can
// vet end to end that the lock-free handlers only read what never
// changes and leave the rest to the distributor.
func TestConcurrentReadsAndIssues(t *testing.T) {
	ts, ex := newTestServer(t, engine.ModeOffline)
	var wg sync.WaitGroup
	paths := []string{"/v1/corpus", "/v1/groups", "/v1/stats", "/v1/audit"}
	for _, p := range paths {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
				}
			}(p)
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := issueRequest{Values: usageValues(ex), Count: 1}
			for j := 0; j < 5; j++ {
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/issue", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentWritesAuditsAndHeadroom runs online issues and revokes
// beside /v1/audit, /v1/headroom and /v1/stats, with no lock in the
// server: the distributor serialises its own writes. Every read answers
// 200, every audit is clean, no headroom divergence is counted, and the
// final audit body equals a fresh distributor's over the same WAL. Run
// it with -race.
func TestConcurrentWritesAuditsAndHeadroom(t *testing.T) {
	srv, ex := testServer(t, engine.ModeOnline)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	u2 := ex.Usage2.Rect
	iv := u2.Value(0).Interval()
	lo, hi := iv.Lo, iv.Hi
	values := [][]license.ValueDoc{
		usageValues(ex),
		{{Lo: &lo, Hi: &hi}, {Set: u2.Value(1).Set().Elems()}},
	}
	post := func(path string, body any) int {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var writers, readers sync.WaitGroup
	for w := range 3 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := range 15 {
				v := values[(w+j)%len(values)]
				if w == 2 {
					// 409: nothing left to revoke for the set yet.
					if code := post("/v1/revoke", lifecycleRequest{Values: v, Count: 2}); code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("revoke status %d", code)
					}
					continue
				}
				if code := post("/v1/issue", issueRequest{Values: v, Count: int64(5 + j)}); code != http.StatusOK {
					t.Errorf("issue status %d", code)
				}
			}
		}()
	}
	done := make(chan struct{})
	for _, p := range []string{"/v1/audit", "/v1/headroom", "/v1/stats"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= 3 {
						return
					}
				default:
				}
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Error(err)
					return
				}
				var body struct {
					OK *bool `json:"ok"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || (body.OK != nil && !*body.OK) {
					t.Errorf("GET %s: status %d, ok %v, %v", p, resp.StatusCode, body.OK, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if got := scrape(t, ts.URL+"/metrics")["drm_headroom_divergence_total"]; got != 0 {
		t.Fatalf("headroom divergence = %v", got)
	}

	audit := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/audit", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("audit status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	api := srv.currentAPI()
	fresh, err := buildDistributor(api.corpus, api.wal, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	freshAPI := corpusAPI{corpus: api.corpus, dist: fresh, workers: api.workers, wal: api.wal}
	got, want := audit(srv.routes()), audit(http.HandlerFunc(freshAPI.handleAudit))
	if got != want {
		t.Fatalf("final audit\n%s\na fresh distributor over the same WAL\n%s", got, want)
	}
	if st := api.dist.Stats(); st.Issued == 0 {
		t.Fatalf("no issue landed: %+v", st)
	}
}
