package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteTableGolden pins the versioned API surface: the canonical /v1
// route patterns (methods and paths), the uniform error-envelope shape,
// and the machine-readable error codes. The golden file is the API
// contract with clients - any route or envelope change must show up as a
// reviewed golden diff, not silently.
func TestRouteTableGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# /v1 routes\n")
	for _, rt := range RouteTable() {
		b.WriteString(rt)
		b.WriteByte('\n')
	}

	b.WriteString("# error envelope\n")
	env, err := json.Marshal(ErrorEnvelope{Error: ErrorBody{
		Code:    CodeFailed,
		Message: "<message>",
		State:   StateFailed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	b.Write(env)
	b.WriteByte('\n')

	b.WriteString("# error codes\n")
	for _, code := range []string{
		CodeBadRequest, CodeNotFound, CodeNotReady, CodeDraining,
		CodeTooManySessions, CodeTooLarge, CodeFailed, CodeInternal,
		CodePeerUnreachable,
	} {
		b.WriteString(code)
		b.WriteByte('\n')
	}

	got := b.String()
	goldenPath := filepath.Join("testdata", "routes.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("route table drifted from golden (UPDATE_GOLDEN=1 to accept):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestLegacyAPIPrefixGone: the pre-versioning /api/v1 aliases are gone -
// they answer 404 like any unknown path - and /metrics no longer carries a
// family counting their traffic.
func TestLegacyAPIPrefixGone(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	for _, path := range []string{"/api/v1/healthz", "/api/v1/jobs"} {
		if resp, _ := c.do("GET", path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp, _ := c.do("GET", "/v1/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/healthz: status %d, want 200", resp.StatusCode)
	}
	if _, body := c.do("GET", "/metrics", nil); strings.Contains(string(body), "deprecated_requests") {
		t.Error("/metrics still exposes a deprecated-requests family")
	}
}
