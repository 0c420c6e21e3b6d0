package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/logstore"
)

// FuzzWriteBodies: arbitrary bytes POSTed to any of the four write
// endpoints are answered with a 2xx, or with a 4xx carrying the
// structured error body — never a panic and never a 5xx.
func FuzzWriteBodies(f *testing.F) {
	ex := license.NewExample1()
	store, err := logstore.OpenFile(filepath.Join(f.TempDir(), "issued.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	srv, err := newServer(ex.Corpus, store, engine.ModeOnline, 1)
	if err != nil {
		f.Fatal(err)
	}
	routes := srv.routes()
	paths := []string{"/v1/issue", "/v1/revoke", "/v1/transfer", "/v1/expire"}

	vals, err := json.Marshal(usageValues(ex))
	if err != nil {
		f.Fatal(err)
	}
	for i, body := range []string{
		`{"values":` + string(vals) + `,"count":800}`,
		`{"values":` + string(vals) + `,"count":100}`,
		`{"values":` + string(vals) + `,"count":50}`,
		`{"now":4102444800}`,
		`{"values":` + string(vals) + `,"count":5,"ttl_seconds":60}`,
		`{"values":` + string(vals) + `,"count":-3,"kind":"redistribution"}`,
		`{"values":[{"lo":9,"hi":1},{"set":[]}],"count":9223372036854775807}`,
		`{"values":[{"lo":1}],"count":1,"expiry":-1}`,
		`{"now":-9223372036854775808}`,
		`{"values":null}`,
		`[]`,
		`{`,
		``,
	} {
		f.Add(uint8(i), []byte(body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rr := httptest.NewRecorder()
		routes.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rr.Code; {
		case code >= 200 && code < 300:
		case code >= 400 && code < 500:
			var e errorBody
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %q: %d without a structured error body: %q", path, body, code, rr.Body.String())
			}
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, code, rr.Body.String())
		}
	})
}
