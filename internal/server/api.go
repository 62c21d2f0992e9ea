package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// Sentinel and typed errors the API maps onto HTTP status codes.
var (
	// ErrDraining: the server is shutting down and refuses new jobs (503).
	ErrDraining = errors.New("server is draining, not accepting new jobs")
	// ErrTooManySessions: Options.MaxSessions running sessions exist (429).
	ErrTooManySessions = errors.New("too many concurrent sessions")
	// ErrNotFound: no session with that ID (404).
	ErrNotFound = errors.New("no such job")
	// ErrNotReady: the session is still running, its result is not final
	// yet (409).
	ErrNotReady = errors.New("job still running, result not ready")
)

// BadRequestError marks an invalid job spec (400).
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// FailedError reports a result request against a session that ended
// without one (failed, canceled, or interrupted; 409).
type FailedError struct {
	State   State
	Message string
}

func (e *FailedError) Error() string {
	return fmt.Sprintf("job %s: %s", e.State, e.Message)
}

// Handler returns the server's HTTP API, versioned under /v1/:
//
//	POST   /v1/jobs             submit a JobSpec, 202 + JobStatus
//	GET    /v1/jobs             list sessions (submission order)
//	GET    /v1/jobs/{id}        one session's status
//	GET    /v1/jobs/{id}/result final JobResult (409 until terminal)
//	GET    /v1/jobs/{id}/events SSE per-generation progress
//	DELETE /v1/jobs/{id}        cancel a running session
//	GET    /v1/stats            shared-cache + scheduler accounting
//	GET    /v1/sessions         per-session generation-latency quantiles
//	GET    /v1/healthz          liveness + draining flag
//	GET    /metrics             Prometheus text exposition: registry
//	                            metrics, per-route HTTP latency/status,
//	                            per-phase span-duration histograms,
//	                            shared-cache hit/collision accounting
//	GET    /debug/sessions      per-session metric registry snapshots
//	                            plus each session's span flight recorder
//	GET    /debug/pprof/...     Go profiling handlers (telemetry.DebugMux)
//
// Every /v1 route is wrapped in the latency/status middleware feeding
// /metrics. Errors use a uniform envelope:
//
//	{"error": {"code": "not_found", "message": "no such job"}}
//
// with codes bad_request, not_found, not_ready, draining,
// too_many_sessions, too_large, failed, internal, and peer_unreachable
// (failed errors also carry the session's terminal state). Body-carrying
// routes cap the request body at maxRequestBody and answer 413 too_large
// past it.
//
// On a clustered server (Options.Cluster) the job-addressed routes answer
// for the whole cluster: a job minted by a peer proxies to that peer's
// API, /v1/sessions and /v1/stats carry a "cluster" block, and /metrics
// gains the nautilus_cluster_* families.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routeDefs() {
		fn := rt.fn
		if strings.HasPrefix(rt.pattern, http.MethodPost+" ") {
			fn = limitBody(fn)
		}
		mux.HandleFunc(rt.pattern, s.instrument(rt.pattern, fn))
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/sessions", s.handleDebugSessions)
	mux.Handle("/debug/", telemetry.DebugMux(s.reg))
	return mux
}

// routeDef binds one API route pattern ("METHOD /v1/path") to its
// handler.
type routeDef struct {
	pattern string
	fn      http.HandlerFunc
}

// routeDefs is the single source of the versioned route table: Handler
// registers each pattern, and RouteTable exposes the pattern list (pinned
// by a golden test - route changes must show up as a reviewed golden
// diff).
func (s *Server) routeDefs() []routeDef {
	return []routeDef{
		// Job-addressed routes go through proxyJob: on a clustered server,
		// requests for jobs minted by a peer forward to that peer's API, so
		// the whole cluster answers behind any one member. Solo servers pay
		// nothing (jobOwner declines immediately).
		{"POST /v1/jobs", s.handleSubmit},
		{"GET /v1/jobs", s.handleList},
		{"GET /v1/jobs/{id}", s.proxyJob(s.handleStatus)},
		{"GET /v1/jobs/{id}/result", s.proxyJob(s.handleResult)},
		{"GET /v1/jobs/{id}/events", s.proxyJob(s.handleEvents)},
		{"DELETE /v1/jobs/{id}", s.proxyJob(s.handleCancel)},
		{"GET /v1/stats", s.handleStats},
		{"GET /v1/sessions", s.handleSessions},
		{"GET /v1/healthz", s.handleHealthz},
	}
}

// RouteTable returns the /v1 route patterns ("METHOD /v1/path") in
// registration order.
func RouteTable() []string {
	var s Server // handlers are method values, never invoked here
	defs := s.routeDefs()
	out := make([]string, len(defs))
	for i, rt := range defs {
		out[i] = rt.pattern
	}
	return out
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes of the uniform envelope.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodeNotReady        = "not_ready"
	CodeDraining        = "draining"
	CodeTooManySessions = "too_many_sessions"
	CodeTooLarge        = "too_large"
	CodeFailed          = "failed"
	CodeInternal        = "internal"
)

// maxRequestBody bounds every body-carrying /v1 request. A JobSpec is a
// few hundred bytes; one MiB leaves generous headroom while keeping a
// misbehaving (or slow-loris) client from streaming an unbounded body
// into the decoder.
const maxRequestBody = 1 << 20

// limitBody caps r.Body so oversized requests surface as
// *http.MaxBytesError (mapped to 413 too_large) instead of being read
// to completion.
func limitBody(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		fn(w, r)
	}
}

// ErrorBody is the payload of the uniform error envelope.
type ErrorBody struct {
	// Code is one of the Code* constants - the field clients switch on.
	Code    string `json:"code"`
	Message string `json:"message"`
	// State carries the session's terminal state on "failed" errors.
	State State `json:"state,omitempty"`
}

// ErrorEnvelope is every non-2xx response's JSON shape:
// {"error":{"code","message"}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError maps err to a status code and writes the uniform envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	var bad *BadRequestError
	var failed *FailedError
	var tooBig *http.MaxBytesError
	switch {
	// MaxBytesError first: the submit path wraps decode errors in
	// BadRequestError, and an overflow must stay a 413, not decay to 400.
	case errors.As(err, &tooBig):
		status, code = http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.As(err, &bad):
		status, code = http.StatusBadRequest, CodeBadRequest
	case errors.As(err, &failed):
		status, code = http.StatusConflict, CodeFailed
	case errors.Is(err, ErrNotFound):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrNotReady):
		status, code = http.StatusConflict, CodeNotReady
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, ErrTooManySessions):
		status, code = http.StatusTooManyRequests, CodeTooManySessions
	}
	body := ErrorBody{Code: code, Message: err.Error()}
	if failed != nil {
		body.State = failed.State
	}
	writeJSON(w, status, ErrorEnvelope{Error: body})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, &BadRequestError{Err: fmt.Errorf("decode job spec: %w", err)})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type cacheStats struct {
		Distinct   int     `json:"distinct_evals"`
		Total      int     `json:"total_queries"`
		Hits       int     `json:"hits"`
		HitRate    float64 `json:"hit_rate"`
		Transient  int     `json:"transient"`
		Collisions int     `json:"collisions"`
	}
	shared := make(map[string]cacheStats)
	for ip, st := range s.SharedCacheStats() {
		shared[ip] = cacheStats{
			Distinct: st.Distinct, Total: st.Total, Hits: st.Hits,
			HitRate: st.HitRate, Transient: st.Transient,
			Collisions: st.Collisions,
		}
	}
	resp := map[string]any{
		"shared_caches": shared,
		"scheduler": map[string]any{
			"capacity": s.opts.Workers,
			"busy":     s.sched.busySlots(),
			"waiting":  s.sched.waiting(),
		},
		"sessions_active": s.runningCount(),
	}
	if ci := s.clusterInfo(); ci != nil {
		resp["cluster"] = ci
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.Draining()})
}

// handleSessions reports each session's live performance view: running
// generation-latency quantiles (p50/p90/p99/mean over every completed
// generation) and the session-private cache hit ratio, in submission
// order.
func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]SessionPerf, 0, len(ids))
	for _, id := range ids {
		if sess, err := s.get(id); err == nil {
			out = append(out, sess.perf())
		}
	}
	resp := map[string]any{"sessions": out}
	if ci := s.clusterInfo(); ci != nil {
		resp["cluster"] = ci
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugSessions dumps each session's private metric registry - the
// per-session half of the introspection story (the global half is the
// server registry on /metrics).
func (s *Server) handleDebugSessions(w http.ResponseWriter, _ *http.Request) {
	type sessionDebug struct {
		Status  JobStatus          `json:"status"`
		Metrics telemetry.Snapshot `json:"metrics"`
		// Spans is the session's flight recorder: its most recent spans
		// (oldest first), capped at flightRecorderSize.
		Spans []trace.Span `json:"spans,omitempty"`
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make(map[string]sessionDebug, len(ids))
	for _, id := range ids {
		sess, err := s.get(id)
		if err != nil {
			continue
		}
		out[id] = sessionDebug{
			Status:  sess.status(),
			Metrics: sess.col.Registry().Snapshot(),
			Spans:   sess.ring.Snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEvents streams per-generation progress as Server-Sent Events:
// every completed generation as an "event: generation" with a genEvent
// JSON payload (replayed from history for late subscribers), then one
// "event: done" carrying the final JobStatus when the session ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, err := s.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// writeEvent surfaces the connection's write error so a client that
	// vanished mid-replay (reset, partition) aborts the handler instead of
	// streaming the rest of history into a dead pipe.
	writeEvent := func(name string, data []byte) error {
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		return err
	}
	finish := func() {
		data, err := json.Marshal(sess.status())
		if err == nil && writeEvent("done", data) == nil {
			fl.Flush()
		}
	}

	ch, replay, closed := sess.hub.subscribe()
	for _, b := range replay {
		if writeEvent("generation", b) != nil {
			if !closed {
				sess.hub.unsubscribe(ch)
			}
			return
		}
	}
	fl.Flush()
	if closed {
		finish()
		return
	}
	defer sess.hub.unsubscribe(ch)
	for {
		select {
		case b, ok := <-ch:
			if !ok {
				finish()
				return
			}
			if writeEvent("generation", b) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
