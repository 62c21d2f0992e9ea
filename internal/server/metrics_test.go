package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nautilus/internal/telemetry/prom"
)

// TestMetricsExposition runs sessions to completion, scrapes /metrics,
// and feeds it through the strict parser: the exposition must be
// well-formed (cumulative histograms, typed families, no duplicates) and
// must carry the route latency histograms, per-phase span histograms,
// and shared-cache hit/collision accounting the observability layer
// promises. The stable family set is pinned by a golden file.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	// The same spec twice: the second session answers every evaluation
	// from the shared per-IP cache, so hit counters are guaranteed.
	for i := 0; i < 2; i++ {
		st, err := s.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
	}
	// Exercise some API routes so their series exist, including a 404.
	c.do("GET", "/v1/jobs", nil)
	c.do("GET", "/v1/stats", nil)
	c.do("GET", "/v1/sessions", nil)
	c.do("GET", "/v1/jobs/nope", nil)

	resp, body := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != prom.ContentType {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	fams, err := prom.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v\n%s", err, body)
	}

	byName := make(map[string]prom.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}

	// Per-phase span histograms: every phase of the span taxonomy the
	// batch-dispatch search exercises must have a labeled series.
	spans := make(map[string]bool)
	for _, sm := range byName["nautilus_span_duration_ns"].Samples {
		for _, l := range sm.Labels {
			if l.Name == "span" {
				spans[l.Value] = true
			}
		}
	}
	for _, want := range []string{
		"ga.generation", "ga.dispatch", "ga.selection", "ga.crossover", "ga.mutation",
		"cache.batch", "cache.probe", "cache.fanout",
	} {
		if !spans[want] {
			t.Errorf("span %q missing from nautilus_span_duration_ns (have %v)", want, spans)
		}
	}

	// Route latency histograms label by canonical /v1 pattern.
	routes := make(map[string]bool)
	for _, sm := range byName["nautilus_http_request_duration_ns"].Samples {
		for _, l := range sm.Labels {
			if l.Name == "route" {
				routes[l.Value] = true
			}
		}
	}
	for _, want := range []string{"GET /v1/jobs", "GET /v1/stats", "GET /v1/sessions", "GET /v1/jobs/{id}"} {
		if !routes[want] {
			t.Errorf("route %q missing from latency histogram (have %v)", want, routes)
		}
	}

	// Status-class counters saw both the 2xx traffic and the 404 probe.
	classes := make(map[string]float64)
	for _, sm := range byName["nautilus_http_requests_total"].Samples {
		for _, l := range sm.Labels {
			if l.Name == "code" {
				classes[l.Value] += sm.Value
			}
		}
	}
	if classes["2xx"] == 0 || classes["4xx"] == 0 {
		t.Errorf("status-class counters incomplete: %v", classes)
	}

	// Shared-cache accounting carries the ip label and a sane hit ratio.
	var hits, lookups float64
	for _, sm := range byName["nautilus_shared_cache_hits_total"].Samples {
		hits += sm.Value
	}
	for _, sm := range byName["nautilus_shared_cache_lookups_total"].Samples {
		lookups += sm.Value
	}
	if lookups == 0 || hits <= 0 || hits > lookups {
		t.Errorf("shared-cache counters: hits %v of %v lookups", hits, lookups)
	}
	if _, ok := byName["nautilus_shared_cache_collisions_total"]; !ok {
		t.Error("collision counter family missing")
	}

	// Aggregated run metrics flowed through the global collector.
	for _, name := range []string{"nautilus_ga_generations", "nautilus_cache_hits", "nautilus_server_sessions_done"} {
		f, ok := byName[name]
		if !ok || len(f.Samples) == 0 || f.Samples[0].Value == 0 {
			t.Errorf("family %s missing or zero", name)
		}
	}

	// Golden check: the family name/type set is a contract with
	// dashboards; renames must show up as a reviewed golden diff. Every
	// family is in it - none appears or vanishes with scheduling.
	var lines []string
	for _, f := range fams {
		lines = append(lines, fmt.Sprintf("%s %s", f.Name, f.Type))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	goldenPath := filepath.Join("testdata", "metrics_families.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric family set drifted from golden (UPDATE_GOLDEN=1 to accept):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSessionsPerfEndpoint checks /v1/sessions reports live per-session
// generation-latency quantiles and cache hit ratio, and that the SSE
// stream carries the same running fields.
func TestSessionsPerfEndpoint(t *testing.T) {
	s := newTestServer(t, Options{EvalDelay: time.Millisecond})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	st, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	resp, body := c.do("GET", "/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sessions: status %d", resp.StatusCode)
	}
	var out struct {
		Sessions []SessionPerf `json:"sessions"`
	}
	c.decode(body, &out)
	if len(out.Sessions) != 1 {
		t.Fatalf("sessions: %+v", out.Sessions)
	}
	p := out.Sessions[0]
	if p.ID != st.ID || p.State != StateDone {
		t.Fatalf("session perf identity: %+v", p)
	}
	if p.Generations != int64(testSpec().Generations+1) {
		t.Errorf("observed %d generation latencies, want %d", p.Generations, testSpec().Generations+1)
	}
	if p.GenLatencyP50Micros <= 0 || p.GenLatencyP99Micros < p.GenLatencyP50Micros {
		t.Errorf("latency quantiles implausible: p50 %v, p99 %v", p.GenLatencyP50Micros, p.GenLatencyP99Micros)
	}
	if p.CacheHitRate < 0 || p.CacheHitRate > 1 {
		t.Errorf("cache hit rate %v outside [0,1]", p.CacheHitRate)
	}

	// SSE events carry the running quantiles; by the final generation the
	// histogram has samples, so the fields are set.
	gens, _ := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	last := gens[len(gens)-1]
	if last.LatencyP50Micros <= 0 {
		t.Errorf("SSE latency p50 missing: %+v", last)
	}
	if last.CacheHitRate == nil {
		t.Errorf("SSE cache hit rate missing: %+v", last)
	}

	// The flight recorder surfaced spans on the debug endpoint.
	_, body = c.do("GET", "/debug/sessions", nil)
	if !bytes.Contains(body, []byte(`"ga.generation"`)) {
		t.Errorf("/debug/sessions carries no ga.generation spans")
	}
}
