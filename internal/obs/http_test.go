package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help").Add(2)
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 2") {
		t.Errorf("body = %q", rec.Body.String())
	}
}
