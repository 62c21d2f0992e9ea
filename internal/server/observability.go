package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/hist"
	"nautilus/internal/telemetry/prom"
	"nautilus/internal/telemetry/trace"
)

// flightRecorderSize is each session's span ring-buffer capacity: the last
// spans of a search, kept for /debug/sessions post-mortems. Bounded per
// session so a long daemon life cannot grow span memory without limit.
const flightRecorderSize = 256

// httpStats aggregates per-route request metrics for /metrics: a
// power-of-two latency histogram and status-class counters per route
// pattern, plus the in-flight gauge. Routes register once at Handler
// construction, so request handling never takes the map lock.
type httpStats struct {
	inflight atomic.Int64

	mu     sync.Mutex
	routes map[string]*routeStats
}

// routeStats is one route pattern's accounting.
type routeStats struct {
	latency hist.Hist
	// status counts responses by status class, indexed status/100
	// (1xx..5xx in 1..5; 0 catches anything unclassifiable).
	status [6]atomic.Int64
}

func newHTTPStats() *httpStats {
	return &httpStats{routes: make(map[string]*routeStats)}
}

// route returns (registering on first use) the stats slot for a pattern.
func (h *httpStats) route(pattern string) *routeStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	rs, ok := h.routes[pattern]
	if !ok {
		rs = &routeStats{}
		h.routes[pattern] = rs
	}
	return rs
}

// statusClasses are the label values of nautilus_http_requests_total.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// promFamilies renders the HTTP tier's families, routes sorted for
// deterministic exposition.
func (h *httpStats) promFamilies() []prom.Family {
	h.mu.Lock()
	names := make([]string, 0, len(h.routes))
	for name := range h.routes {
		names = append(names, name)
	}
	routes := make(map[string]*routeStats, len(h.routes))
	for name, rs := range h.routes {
		routes[name] = rs
	}
	h.mu.Unlock()
	sort.Strings(names)

	lat := prom.Family{
		Name: telemetry.MetricNamespace + "http_request_duration_ns",
		Help: "request wall time per route, nanoseconds",
		Type: prom.TypeHistogram,
	}
	reqs := prom.Family{
		Name: telemetry.MetricNamespace + "http_requests_total",
		Help: "responses per route and status class",
		Type: prom.TypeCounter,
	}
	for _, name := range names {
		rs := routes[name]
		if snap := rs.latency.Snapshot(); snap.Count > 0 {
			lat.AddHist([]prom.Label{{Name: "route", Value: name}}, snap)
		}
		for cls, label := range statusClasses {
			if n := rs.status[cls].Load(); n > 0 {
				reqs.Samples = append(reqs.Samples, prom.Sample{
					Labels: []prom.Label{{Name: "route", Value: name}, {Name: "code", Value: label}},
					Value:  float64(n),
				})
			}
		}
	}
	inflight := prom.Family{
		Name:    telemetry.MetricNamespace + "http_in_flight_requests",
		Help:    "requests currently being served",
		Type:    prom.TypeGauge,
		Samples: []prom.Sample{{Value: float64(h.inflight.Load())}},
	}
	return []prom.Family{lat, reqs, inflight}
}

// statusWriter captures the response status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// flushWriter adds Flush passthrough - but only when the underlying
// writer is itself a Flusher, so the SSE handler's Flusher type assertion
// keeps reporting streaming support truthfully through the middleware.
type flushWriter struct{ *statusWriter }

func (w flushWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// instrument wraps a route handler with per-route latency, status-class,
// and in-flight accounting. pattern is the route label.
func (s *Server) instrument(pattern string, fn http.HandlerFunc) http.HandlerFunc {
	rs := s.http.route(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		s.http.inflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var ww http.ResponseWriter = sw
		if _, ok := w.(http.Flusher); ok {
			ww = flushWriter{sw}
		}
		defer func() {
			rs.latency.ObserveDuration(time.Since(start))
			code := sw.status
			if code == 0 {
				code = http.StatusOK
			}
			cls := code / 100
			if cls < 1 || cls > 5 {
				cls = 0
			}
			rs.status[cls].Add(1)
			s.http.inflight.Add(-1)
		}()
		fn(ww, r)
	}
}

// spanFamily renders the process-wide span-duration histograms as one
// family labeled by span name - the per-phase GA, cache, and resilience
// latency distributions every session's tracer feeds.
func spanFamily(durs *trace.Durations) prom.Family {
	f := prom.Family{
		Name: telemetry.MetricNamespace + "span_duration_ns",
		Help: "span wall time by span name, nanoseconds",
		Type: prom.TypeHistogram,
	}
	snaps := durs.Hists.Snapshot()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.AddHist([]prom.Label{{Name: "span", Value: name}}, snaps[name])
	}
	return f
}

// sharedCacheFamilies renders the per-IP shared-cache accounting.
func sharedCacheFamilies(stats map[string]dataset.CacheStats) []prom.Family {
	mk := func(suffix, help string, typ prom.Type) prom.Family {
		return prom.Family{Name: telemetry.MetricNamespace + "shared_cache_" + suffix, Help: help, Type: typ}
	}
	distinct := mk("distinct_evals", "distinct design points evaluated per shared cache", prom.TypeGauge)
	lookups := mk("lookups_total", "lookups per shared cache", prom.TypeCounter)
	hits := mk("hits_total", "hits per shared cache", prom.TypeCounter)
	collisions := mk("collisions_total", "hash-collision probes per shared cache", prom.TypeCounter)
	ratio := mk("hit_ratio", "hits / lookups per shared cache", prom.TypeGauge)

	ips := make([]string, 0, len(stats))
	for ip := range stats {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		st := stats[ip]
		labels := []prom.Label{{Name: "ip", Value: ip}}
		distinct.Samples = append(distinct.Samples, prom.Sample{Labels: labels, Value: float64(st.Distinct)})
		lookups.Samples = append(lookups.Samples, prom.Sample{Labels: labels, Value: float64(st.Total)})
		hits.Samples = append(hits.Samples, prom.Sample{Labels: labels, Value: float64(st.Hits)})
		collisions.Samples = append(collisions.Samples, prom.Sample{Labels: labels, Value: float64(st.Collisions)})
		ratio.Samples = append(ratio.Samples, prom.Sample{Labels: labels, Value: st.HitRate})
	}
	return []prom.Family{distinct, lookups, hits, collisions, ratio}
}

// modeFamilies renders the nautilus_pareto_* and nautilus_portfolio_*
// exposition for multi-objective and strategy-race sessions. Both family
// groups materialize lazily - a server that has never seen a pareto or
// portfolio job exposes neither - so the base family set (pinned by the
// metrics golden) is unchanged for scalar-only deployments.
func (s *Server) modeFamilies() []prom.Family {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	sessions := make([]*session, 0, len(ids))
	for _, id := range ids {
		if sess, ok := s.sessions[id]; ok {
			sessions = append(sessions, sess)
		}
	}
	s.mu.Unlock()

	frontSize := prom.Family{
		Name: telemetry.MetricNamespace + "pareto_front_size",
		Help: "non-dominated archive size per pareto session",
		Type: prom.TypeGauge,
	}
	hv := prom.Family{
		Name: telemetry.MetricNamespace + "pareto_hypervolume",
		Help: "dominated hypervolume against the running-nadir reference per pareto session",
		Type: prom.TypeGauge,
	}
	races := prom.Family{
		Name: telemetry.MetricNamespace + "portfolio_races_total",
		Help: "portfolio sessions completed",
		Type: prom.TypeCounter,
	}
	wins := prom.Family{
		Name: telemetry.MetricNamespace + "portfolio_strategy_wins_total",
		Help: "portfolio races won per strategy",
		Type: prom.TypeCounter,
	}
	stratEvals := prom.Family{
		Name: telemetry.MetricNamespace + "portfolio_strategy_evals_total",
		Help: "private distinct evaluations per strategy across portfolio races",
		Type: prom.TypeCounter,
	}
	saved := prom.Family{
		Name: telemetry.MetricNamespace + "portfolio_evals_saved_total",
		Help: "evaluator invocations saved by the shared dedup cache across portfolio races",
		Type: prom.TypeCounter,
	}

	var pareto, portfolio bool
	var raceCount, savedCount float64
	winCount := make(map[string]float64)
	evalCount := make(map[string]float64)
	for _, sess := range sessions {
		sess.mu.Lock()
		mode, fs, h, res := sess.spec.Mode, sess.frontSize, sess.hypervolume, sess.result
		id := sess.id
		sess.mu.Unlock()
		switch mode {
		case core.ModePareto:
			pareto = true
			labels := []prom.Label{{Name: "job", Value: id}}
			frontSize.Samples = append(frontSize.Samples, prom.Sample{Labels: labels, Value: float64(fs)})
			hv.Samples = append(hv.Samples, prom.Sample{Labels: labels, Value: h})
		case core.ModePortfolio:
			portfolio = true
			if res == nil {
				continue
			}
			raceCount++
			private := 0
			for _, o := range res.Portfolio {
				evalCount[o.Strategy] += float64(o.DistinctEvals)
				private += o.DistinctEvals
				if o.Winner {
					winCount[o.Strategy]++
				}
			}
			if private > res.DistinctEvals {
				savedCount += float64(private - res.DistinctEvals)
			}
		}
	}

	var fams []prom.Family
	if pareto {
		fams = append(fams, frontSize, hv)
	}
	if portfolio {
		races.Samples = []prom.Sample{{Value: raceCount}}
		saved.Samples = []prom.Sample{{Value: savedCount}}
		for _, name := range []string{core.StrategyGuided, core.StrategyBaseline, core.StrategyAnneal} {
			labels := []prom.Label{{Name: "strategy", Value: name}}
			wins.Samples = append(wins.Samples, prom.Sample{Labels: labels, Value: winCount[name]})
			stratEvals.Samples = append(stratEvals.Samples, prom.Sample{Labels: labels, Value: evalCount[name]})
		}
		fams = append(fams, races, wins, stratEvals, saved)
	}
	return fams
}

// handleMetrics serves the full service-tier exposition: the shared
// registry (server/scheduler/aggregated-run metrics), per-route HTTP
// latency and status counters, per-phase span-duration histograms, and
// per-IP shared-cache accounting - plus the lazily materialized pareto and
// portfolio families once such sessions exist.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	fams := telemetry.PromFamilies(s.reg.Snapshot())
	fams = append(fams, s.http.promFamilies()...)
	fams = append(fams, spanFamily(s.durs))
	fams = append(fams, sharedCacheFamilies(s.SharedCacheStats())...)
	fams = append(fams, s.modeFamilies()...)
	w.Header().Set("Content-Type", prom.ContentType)
	_ = prom.Write(w, fams)
}
