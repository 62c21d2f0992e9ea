package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// apiClient wraps the test HTTP calls.
type apiClient struct {
	t    *testing.T
	base string
}

func (c *apiClient) do(method, path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func (c *apiClient) decode(data []byte, v any) {
	c.t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		c.t.Fatalf("decode %s: %v", data, err)
	}
}

// TestAPI drives the whole HTTP surface against a live server: submit,
// status, SSE progress, result, stats, error mapping, and cancel.
func TestAPI(t *testing.T) {
	s := newTestServer(t, Options{EvalDelay: time.Millisecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	// Invalid specs and bodies map to 400.
	resp, body := c.do("POST", "/v1/jobs", map[string]any{"ip": "dsp", "query": "min-luts", "seed": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown IP: status %d, body %s", resp.StatusCode, body)
	}
	resp, _ = c.do("POST", "/v1/jobs", map[string]any{"ip": "fft", "query": "min-luts", "seed": 1, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Unknown job IDs map to 404 everywhere.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		if resp, _ := c.do("GET", path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A valid submission is accepted and listed.
	resp, body = c.do("POST", "/v1/jobs", testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	c.decode(body, &st)
	if st.ID == "" || st.State != StateRunning {
		t.Fatalf("submit returned %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location header %q", loc)
	}
	resp, body = c.do("GET", "/v1/jobs", nil)
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	c.decode(body, &list)
	if resp.StatusCode != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list: status %d, jobs %+v", resp.StatusCode, list.Jobs)
	}

	// SSE: the event stream replays every generation and ends with a done
	// event carrying the terminal status.
	gens, final := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(gens) != testSpec().Generations+1 { // generation 0 included
		t.Fatalf("SSE delivered %d generation events, want %d", len(gens), testSpec().Generations+1)
	}
	for i, g := range gens {
		if g.Generation != i {
			t.Fatalf("SSE event %d is generation %d", i, g.Generation)
		}
	}
	if final.State != StateDone {
		t.Fatalf("SSE done event carried state %s (%s)", final.State, final.Error)
	}
	// A late subscriber to a finished session still gets the full replay.
	gens2, final2 := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(gens2) != len(gens) || final2.State != StateDone {
		t.Fatalf("late SSE subscriber saw %d events, state %s", len(gens2), final2.State)
	}

	// Status and result agree with the stream.
	resp, body = c.do("GET", "/v1/jobs/"+st.ID, nil)
	var done JobStatus
	c.decode(body, &done)
	if resp.StatusCode != http.StatusOK || done.State != StateDone {
		t.Fatalf("status after done: %d %+v", resp.StatusCode, done)
	}
	resp, body = c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, body %s", resp.StatusCode, body)
	}
	var res JobResult
	c.decode(body, &res)
	if res.Configuration == "" || res.DistinctEvals == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}

	// Stats expose the shared cache and scheduler.
	resp, body = c.do("GET", "/v1/stats", nil)
	var stats struct {
		SharedCaches map[string]struct {
			Distinct int `json:"distinct_evals"`
		} `json:"shared_caches"`
	}
	c.decode(body, &stats)
	if resp.StatusCode != http.StatusOK || stats.SharedCaches["fft"].Distinct != res.DistinctEvals {
		t.Fatalf("stats: status %d, body %s", resp.StatusCode, body)
	}

	// The debug surface is mounted: expvar, pprof, per-session registries.
	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline", "/debug/sessions", "/v1/healthz"} {
		if resp, _ := c.do("GET", path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// Cancel flow: a long job canceled over HTTP ends canceled, and its
	// result endpoint reports the state as a conflict.
	long := testSpec()
	long.Generations = 200
	_, body = c.do("POST", "/v1/jobs", long)
	var st2 JobStatus
	c.decode(body, &st2)
	resp, body = c.do("GET", "/v1/jobs/"+st2.ID+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ = c.do("DELETE", "/v1/jobs/"+st2.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitDone(t, s, st2.ID)
	resp, body = c.do("GET", "/v1/jobs/"+st2.ID+"/result", nil)
	var errBody ErrorEnvelope
	c.decode(body, &errBody)
	if resp.StatusCode != http.StatusConflict || errBody.Error.Code != CodeFailed || errBody.Error.State != StateCanceled {
		t.Fatalf("result after cancel: status %d, body %s", resp.StatusCode, body)
	}
}

// readEvents consumes one SSE stream to completion: the generation events
// and the final done status.
func readEvents(t *testing.T, url string) ([]genEvent, JobStatus) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE: content type %q", ct)
	}
	return parseSSE(t, resp.Body)
}

// parseSSE consumes one SSE body to completion: the generation events
// and the final done status.
func parseSSE(t *testing.T, body io.Reader) ([]genEvent, JobStatus) {
	t.Helper()
	var gens []genEvent
	var final JobStatus
	sc := bufio.NewScanner(body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "generation":
				var g genEvent
				if err := json.Unmarshal([]byte(data), &g); err != nil {
					t.Fatalf("bad generation event %q: %v", data, err)
				}
				gens = append(gens, g)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				return gens, final
			default:
				t.Fatalf("unexpected SSE event %q", event)
			}
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatal("SSE stream ended without a done event")
	return nil, JobStatus{}
}

// TestAPILimits checks the admission guards surface as HTTP statuses.
func TestAPILimits(t *testing.T) {
	s := newTestServer(t, Options{MaxSessions: 1, EvalDelay: 3 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	long := testSpec()
	long.Generations = 200
	resp, body := c.do("POST", "/v1/jobs", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st JobStatus
	c.decode(body, &st)
	if resp, _ = c.do("POST", "/v1/jobs", long); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over max-sessions: status %d, want 429", resp.StatusCode)
	}
	if resp, _ = c.do("DELETE", "/v1/jobs/"+st.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ = c.do("POST", "/v1/jobs", testSpec()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	resp, body = c.do("GET", "/v1/healthz", nil)
	var hz struct {
		Draining bool `json:"draining"`
	}
	c.decode(body, &hz)
	if resp.StatusCode != http.StatusOK || !hz.Draining {
		t.Fatalf("healthz while draining: status %d, body %s", resp.StatusCode, body)
	}
}
