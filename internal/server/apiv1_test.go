package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestV1Routes drives the /v1/ route family end to end.
func TestV1Routes(t *testing.T) {
	s := newTestServer(t, Options{EvalDelay: time.Millisecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	// Submit; Location must point into the /v1 family.
	resp, body := c.do("POST", "/v1/jobs", JobSpec{IP: "fft", Query: "min-luts", Generations: 3, Population: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("canonical submit Location = %q, want /v1/jobs/... prefix", loc)
	}
	var st JobStatus
	c.decode(body, &st)
	waitDone(t, s, st.ID)

	// Remaining routes answer.
	for _, path := range []string{"/v1/jobs", "/v1/jobs/" + st.ID, "/v1/jobs/" + st.ID + "/result", "/v1/stats", "/v1/healthz"} {
		if resp, body := c.do("GET", path, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %s", path, resp.StatusCode, body)
		}
	}
}

// TestErrorEnvelope checks every error family returns the uniform
// {"error":{"code","message"}} shape with the right machine code.
func TestErrorEnvelope(t *testing.T) {
	s := newTestServer(t, Options{EvalDelay: time.Millisecond, MaxSessions: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	check := func(method, path string, body any, wantStatus int, wantCode string) {
		t.Helper()
		resp, data := c.do(method, path, body)
		var env ErrorEnvelope
		c.decode(data, &env)
		if resp.StatusCode != wantStatus || env.Error.Code != wantCode {
			t.Errorf("%s %s: status %d code %q, want %d %q (body %s)",
				method, path, resp.StatusCode, env.Error.Code, wantStatus, wantCode, data)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", method, path)
		}
	}

	check("GET", "/v1/jobs/nope", nil, http.StatusNotFound, CodeNotFound)
	check("POST", "/v1/jobs", map[string]any{"ip": "no-such-ip", "query": "min-luts"},
		http.StatusBadRequest, CodeBadRequest)

	// A running session: result not ready (409/not_ready), and with
	// MaxSessions=1 a second submit is rejected (429/too_many_sessions).
	resp, body := c.do("POST", "/v1/jobs", JobSpec{IP: "fft", Query: "min-luts", Generations: 200, Population: 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	c.decode(body, &st)
	check("GET", "/v1/jobs/"+st.ID+"/result", nil, http.StatusConflict, CodeNotReady)
	check("POST", "/v1/jobs", JobSpec{IP: "fft", Query: "min-luts"},
		http.StatusTooManyRequests, CodeTooManySessions)

	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	check("GET", "/v1/jobs/"+st.ID+"/result", nil, http.StatusConflict, CodeFailed)

	go s.Drain(context.Background())
	for i := 0; !s.Draining() && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	check("POST", "/v1/jobs", JobSpec{IP: "fft", Query: "min-luts"},
		http.StatusServiceUnavailable, CodeDraining)
}

// TestHugePopulationRejected: a population whose genome arenas could not
// be allocated is refused at submission with 400 bad_request - directly
// and over HTTP - and the server keeps serving afterwards.
func TestHugePopulationRejected(t *testing.T) {
	s := newTestServer(t, Options{EvalDelay: time.Millisecond})
	defer s.Drain(context.Background())
	var bad *BadRequestError
	if _, err := s.Submit(JobSpec{IP: "fft", Query: "min-luts", Seed: 1, Population: 1 << 62}); !errors.As(err, &bad) {
		t.Fatalf("Submit with population 1<<62: err = %v, want BadRequestError", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}
	resp, body := c.do("POST", "/v1/jobs", map[string]any{"ip": "fft", "query": "min-luts", "seed": 1, "population": int64(1) << 62})
	var env ErrorEnvelope
	c.decode(body, &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
		t.Fatalf("huge population: status %d code %q, want 400 %q (body %s)", resp.StatusCode, env.Error.Code, CodeBadRequest, body)
	}

	resp, body = c.do("POST", "/v1/jobs", JobSpec{IP: "fft", Query: "min-luts", Generations: 2, Population: 4, Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after rejection: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	c.decode(body, &st)
	waitDone(t, s, st.ID)
}
