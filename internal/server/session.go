package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/hist"
	"nautilus/internal/telemetry/trace"
)

// State is a session's lifecycle stage.
type State string

const (
	// StateRunning: the session's search is in flight.
	StateRunning State = "running"
	// StateDone: the search finished; the result is available.
	StateDone State = "done"
	// StateFailed: the search ended in an error (including "no feasible
	// design found").
	StateFailed State = "failed"
	// StateCanceled: the client canceled the session; it will not resume.
	StateCanceled State = "canceled"
	// StateInterrupted: a server drain stopped the session after writing
	// its checkpoint; a restart on the same state directory resumes it.
	StateInterrupted State = "interrupted"
)

// terminal reports whether the state is final for this server life.
// Interrupted is terminal here but resumable by the next life.
func (s State) terminal() bool { return s != StateRunning }

// JobSpec is a search job submission: which characterized space to search,
// under which objective and guidance, at what GA scale. It deliberately
// matches the nautilus CLI's flags, so a job with the same (space, hints,
// seed, scale) as a CLI run produces a byte-identical best configuration.
type JobSpec struct {
	// IP selects the bundled generator: noc, fft, or gemm.
	IP string `json:"ip"`
	// Query is the optimization goal (see catalog.Queries). Required in
	// scalar and portfolio modes; must be empty in pareto mode, where
	// Queries names the objective vector instead.
	Query string `json:"query,omitempty"`
	// Mode selects the search shape: "" or "scalar" (the default
	// single-objective guided GA), "pareto" (NSGA-II multi-objective
	// search over Queries), or "portfolio" (guided GA, baseline GA, and
	// simulated annealing raced over one shared dedup cache).
	Mode string `json:"mode,omitempty"`
	// Queries is the pareto-mode objective vector: two or more query names
	// on the same IP (Queries[0] is the primary objective whose optimum
	// the scalar reporting fields describe). Must be empty outside pareto
	// mode.
	Queries []string `json:"queries,omitempty"`
	// Guidance is baseline, weak, or strong (default strong).
	Guidance string `json:"guidance,omitempty"`
	// Generations is the GA generation count (default 80).
	Generations int `json:"generations,omitempty"`
	// Population is the GA population size (default 10, at most
	// ga.MaxPopulation).
	Population int `json:"population,omitempty"`
	// Seed seeds the run; results are deterministic in the full spec.
	Seed int64 `json:"seed"`
	// Parallelism bounds the session's concurrent fitness evaluations
	// (default min(population, server workers)); actual concurrency is
	// further gated by the server's fair global budget. Results are
	// identical at any level.
	Parallelism int `json:"parallelism,omitempty"`
	// Hints optionally replaces the IP's built-in hint library with an
	// inline library in the hints-file JSON schema (core.LoadLibrary).
	Hints json.RawMessage `json:"hints,omitempty"`
}

// withDefaults fills zero fields with the CLI's defaults.
func (j JobSpec) withDefaults(workers int) JobSpec {
	if j.Guidance == "" {
		j.Guidance = catalog.GuidanceStrong
	}
	if j.Generations == 0 {
		j.Generations = 80
	}
	if j.Population == 0 {
		j.Population = 10
	}
	if j.Parallelism == 0 {
		j.Parallelism = min(j.Population, workers)
	}
	return j
}

// resolve validates the spec and compiles its catalog entry, guidance,
// and - in pareto mode - the multi-objective vector (one metrics.Objective
// per Queries entry; nil in the other modes). The entry is the primary
// query's: in pareto mode Queries[0] resolves it, so guidance hints and
// the scalar reporting fields follow the primary objective.
func (j JobSpec) resolve() (*catalog.Entry, *core.Guidance, []metrics.Objective, error) {
	if j.Population < 2 {
		return nil, nil, nil, fmt.Errorf("population must be at least 2, got %d", j.Population)
	}
	if j.Population > ga.MaxPopulation {
		return nil, nil, nil, fmt.Errorf("population must be at most %d, got %d", ga.MaxPopulation, j.Population)
	}
	if j.Generations < 1 {
		return nil, nil, nil, fmt.Errorf("generations must be at least 1, got %d", j.Generations)
	}
	if j.Parallelism < 1 {
		return nil, nil, nil, fmt.Errorf("parallelism must be at least 1, got %d", j.Parallelism)
	}
	if j.Seed < 0 {
		return nil, nil, nil, fmt.Errorf("seed must be non-negative, got %d", j.Seed)
	}
	primary := j.Query
	var objs []metrics.Objective
	switch j.Mode {
	case "", core.ModeScalar, core.ModePortfolio:
		if len(j.Queries) > 0 {
			return nil, nil, nil, fmt.Errorf("queries requires mode %q (got %q); scalar and portfolio jobs use query", core.ModePareto, j.Mode)
		}
	case core.ModePareto:
		if j.Query != "" {
			return nil, nil, nil, fmt.Errorf("pareto jobs name their objectives in queries; query must be empty (got %q)", j.Query)
		}
		if len(j.Queries) < 2 {
			return nil, nil, nil, fmt.Errorf("pareto mode needs at least two queries, got %d", len(j.Queries))
		}
		seen := make(map[string]bool, len(j.Queries))
		objs = make([]metrics.Objective, 0, len(j.Queries))
		for _, q := range j.Queries {
			if seen[q] {
				return nil, nil, nil, fmt.Errorf("duplicate pareto query %q", q)
			}
			seen[q] = true
			e, err := catalog.Lookup(j.IP, q)
			if err != nil {
				return nil, nil, nil, err
			}
			objs = append(objs, e.Objective)
		}
		primary = j.Queries[0]
	default:
		return nil, nil, nil, fmt.Errorf("unknown mode %q (want %q, %q, or %q)",
			j.Mode, core.ModeScalar, core.ModePareto, core.ModePortfolio)
	}
	entry, err := catalog.Lookup(j.IP, primary)
	if err != nil {
		return nil, nil, nil, err
	}
	lib := entry.Library
	if len(j.Hints) > 0 {
		lib, err = core.LoadLibrary(entry.Space, bytes.NewReader(j.Hints))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	guid, err := entry.Guidance(j.Guidance, lib)
	if err != nil {
		return nil, nil, nil, err
	}
	return entry, guid, objs, nil
}

// JobStatus is the status payload for one session.
type JobStatus struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// Generation is the last completed generation (-1 before the first).
	Generation int `json:"generation"`
	// BestValue is the best objective value so far; absent until a
	// feasible point is found.
	BestValue *float64 `json:"best_value,omitempty"`
	// DistinctEvals counts this session's distinct design evaluations so
	// far (the paper's cost metric, session-private accounting).
	DistinctEvals int    `json:"distinct_evals"`
	Error         string `json:"error,omitempty"`
	// Resumed marks a session restored from a drain checkpoint.
	Resumed bool `json:"resumed,omitempty"`
	// FrontSize and Hypervolume track a pareto session's non-dominated
	// archive: the feasible points no other evaluated point dominates, and
	// the front's dominated hypervolume against the running-nadir reference
	// (two-objective runs). Absent outside pareto mode.
	FrontSize   int     `json:"front_size,omitempty"`
	Hypervolume float64 `json:"hypervolume,omitempty"`
}

// JobResult is the final payload of a completed session.
type JobResult struct {
	ID string `json:"id"`
	// BestValue and Configuration describe the winning design point.
	// Configuration is param.Space.Describe's rendering - byte-identical
	// to the "configuration:" line the nautilus CLI prints for the same
	// (space, hints, seed, scale).
	BestValue     float64            `json:"best_value"`
	Configuration string             `json:"configuration"`
	Params        map[string]string  `json:"params"`
	Key           string             `json:"key"`
	Metrics       map[string]float64 `json:"metrics"`
	// DistinctEvals / TotalQueries / CacheHits are the session's private
	// evaluation accounting - identical to a solo CLI run's. Evaluations
	// answered by the server's shared per-space cache still count here (the
	// session would have spent them alone), which is exactly what makes
	// cross-session deduplication measurable: the shared space's distinct
	// count stays below the sum over sessions.
	DistinctEvals int     `json:"distinct_evals"`
	TotalQueries  int     `json:"total_queries"`
	CacheHits     int     `json:"cache_hits"`
	HitRate       float64 `json:"hit_rate"`
	Converged     bool    `json:"converged"`
	// Generations is the last completed generation index.
	Generations int `json:"generations"`
	// Objectives names the pareto objective vector (the spec's Queries, in
	// order); Front is the final non-dominated set, sorted best-first on
	// the primary objective, each member carrying its objective values in
	// Objectives order. Hypervolume is the front's dominated hypervolume
	// against the Nadir-derived reference point (two-objective runs).
	// All four are absent outside pareto mode.
	Objectives  []string      `json:"objectives,omitempty"`
	Front       []ParetoPoint `json:"front,omitempty"`
	Hypervolume float64       `json:"hypervolume,omitempty"`
	Nadir       []float64     `json:"nadir,omitempty"`
	// Portfolio reports each raced strategy's outcome (portfolio mode
	// only); exactly one entry has Winner set and the scalar fields above
	// describe that strategy's best design.
	Portfolio []ga.StrategyOutcome `json:"portfolio,omitempty"`
}

// ParetoPoint is one front member in wire form: the design's canonical
// key and human rendering plus its objective values (JobResult.Objectives
// order).
type ParetoPoint struct {
	Key           string    `json:"key"`
	Configuration string    `json:"configuration"`
	Values        []float64 `json:"values"`
}

// genEvent is one SSE progress event, derived from a GenerationRecord.
type genEvent struct {
	Generation    int      `json:"generation"`
	BestValue     *float64 `json:"best_value,omitempty"`
	MeanFitness   *float64 `json:"mean_fitness,omitempty"`
	Feasible      int      `json:"feasible"`
	UniqueGenomes int      `json:"unique_genomes"`
	DistinctEvals int      `json:"distinct_evals"`
	ElapsedMicros int64    `json:"elapsed_us"`
	// LatencyP50Micros / LatencyP99Micros are the session's running
	// generation-latency quantiles; CacheHitRate is its private cache's
	// running hit ratio. All three grow monotonically more stable as the
	// run ages; late SSE subscribers see them in every replayed event.
	LatencyP50Micros int64    `json:"latency_p50_us,omitempty"`
	LatencyP99Micros int64    `json:"latency_p99_us,omitempty"`
	CacheHitRate     *float64 `json:"cache_hit_rate,omitempty"`
	// FrontSize / Hypervolume stream a pareto session's per-generation
	// front growth (absent outside pareto mode).
	FrontSize   int     `json:"front_size,omitempty"`
	Hypervolume float64 `json:"hypervolume,omitempty"`
}

// session is one supervised search running inside the server.
type session struct {
	id    string
	seq   int
	spec  JobSpec
	entry *catalog.Entry
	guid  *core.Guidance
	// objs is the resolved pareto objective vector (nil outside pareto
	// mode), in spec.Queries order.
	objs []metrics.Objective

	hub  *progressHub
	col  *telemetry.Collector
	done chan struct{}
	// progress is the session's live-progress sink on the trace stream;
	// genLat distributes the wall times of the generations it saw run
	// (power-of-two nanosecond buckets) for /v1/sessions and the SSE
	// stream; ring is the session's span flight recorder, dumped by
	// /debug/sessions. All are observational only.
	progress *progressSink
	genLat   hist.Hist
	ring     *trace.Ring

	mu          sync.Mutex
	cancel      context.CancelFunc
	state       State
	gen         int
	bestValue   float64
	feasible    bool
	distinct    int
	frontSize   int
	hypervolume float64
	errMsg      string
	resumed     bool
	userCancel  bool
	result      *JobResult
}

func newSession(id string, seq int, spec JobSpec, entry *catalog.Entry, guid *core.Guidance, objs []metrics.Objective) *session {
	s := &session{
		id:    id,
		seq:   seq,
		spec:  spec,
		entry: entry,
		guid:  guid,
		objs:  objs,
		hub:   newProgressHub(),
		col:   telemetry.NewCollector(nil),
		done:  make(chan struct{}),
		ring:  trace.NewRing(flightRecorderSize),
		state: StateRunning,
		gen:   -1,
	}
	// The collector backs /debug/sessions with its registry alone; the
	// session's generations reach status, SSE and /v1/sessions through
	// the progress sink, so the collector keeps no copy of them.
	s.col.DisableGenerationRetention()
	s.progress = &progressSink{s: s}
	return s
}

// status snapshots the session for the API.
func (s *session) status() JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:            s.id,
		Spec:          s.spec,
		State:         s.state,
		Generation:    s.gen,
		DistinctEvals: s.distinct,
		Error:         s.errMsg,
		Resumed:       s.resumed,
		FrontSize:     s.frontSize,
		Hypervolume:   s.hypervolume,
	}
	if s.feasible {
		v := s.bestValue
		st.BestValue = &v
	}
	return st
}

// SessionPerf is the /v1/sessions payload for one session: the live
// generation-latency distribution (quantiles over every completed
// generation so far, in microseconds) and the session-private cache's
// running hit ratio.
type SessionPerf struct {
	ID            string `json:"id"`
	State         State  `json:"state"`
	Generation    int    `json:"generation"`
	DistinctEvals int    `json:"distinct_evals"`
	// Generations is how many generation latencies the histogram holds.
	Generations          int64   `json:"generations_observed"`
	GenLatencyP50Micros  float64 `json:"gen_latency_p50_us"`
	GenLatencyP90Micros  float64 `json:"gen_latency_p90_us"`
	GenLatencyP99Micros  float64 `json:"gen_latency_p99_us"`
	GenLatencyMeanMicros float64 `json:"gen_latency_mean_us"`
	CacheHitRate         float64 `json:"cache_hit_rate"`
}

// perf snapshots the session's performance view for /v1/sessions.
func (s *session) perf() SessionPerf {
	st := s.status()
	lat := s.genLat.Snapshot()
	p := SessionPerf{
		ID:                   st.ID,
		State:                st.State,
		Generation:           st.Generation,
		DistinctEvals:        st.DistinctEvals,
		Generations:          lat.Count,
		GenLatencyP50Micros:  lat.P50() / 1e3,
		GenLatencyP90Micros:  lat.P90() / 1e3,
		GenLatencyP99Micros:  lat.P99() / 1e3,
		GenLatencyMeanMicros: lat.Mean() / 1e3,
	}
	if hr, ok := s.progress.cacheHitRate(); ok {
		p.CacheHitRate = hr
	}
	return p
}

// stop cancels the session's run context. user marks a client cancel
// (terminal state "canceled") as opposed to a server drain ("interrupted",
// which resumes on restart).
func (s *session) stop(user bool) {
	s.mu.Lock()
	if user && s.state == StateRunning {
		s.userCancel = true
	}
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// finish transitions the session to a terminal state and wakes waiters.
func (s *session) finish(state State, errMsg string, result *JobResult) {
	s.mu.Lock()
	s.state = state
	s.errMsg = errMsg
	s.result = result
	if result != nil && len(result.Front) > 0 {
		// The result's front is exact (a clustered session's per-generation
		// replay streams only a lower bound); status reports it from here on.
		s.frontSize = len(result.Front)
		s.hypervolume = result.Hypervolume
	}
	s.mu.Unlock()
	s.hub.close()
	close(s.done)
}

// progressSink is the session's live-progress sink on the trace stream:
// each generation record updates the session's status, its latency
// histogram, and the SSE hub. It observes records the engine already
// built and never touches the run RNG - streaming progress cannot change
// a search result.
type progressSink struct {
	trace.NopSink
	s *session
	// hits and lookups sum the cache fields of the generation records
	// this sink has seen: the session cache's running hit ratio. Lookups
	// are added before hits and read after them, so a concurrent reader
	// never sees more hits than lookups.
	hits, lookups atomic.Int64
}

// cacheHitRate is the session cache's running hit ratio; ok is false
// before any lookup happened.
func (p *progressSink) cacheHitRate() (rate float64, ok bool) {
	hits := p.hits.Load()
	lookups := p.lookups.Load()
	if lookups == 0 {
		return 0, false
	}
	return float64(hits) / float64(lookups), true
}

// OnGeneration implements trace.Sink: a generation that ran here is
// timed into the latency histogram and its cache lookups are added to
// the running hit ratio, then it is published.
func (p *progressSink) OnGeneration(g trace.GenerationRecord) {
	p.s.genLat.ObserveDuration(g.Elapsed)
	p.lookups.Add(int64(g.CacheHits + g.CacheMisses + g.CacheDedups))
	p.hits.Add(int64(g.CacheHits))
	p.publish(g)
}

// publish folds one generation into the session status and the SSE hub.
// Replayed generations (a clustered session's merged trajectory) enter
// here directly: they were not timed on this node, so they stay out of
// the latency histogram.
func (p *progressSink) publish(g trace.GenerationRecord) {
	s := p.s
	s.mu.Lock()
	s.gen = g.Generation
	s.distinct = g.DistinctEvals
	s.frontSize = g.FrontSize
	s.hypervolume = g.Hypervolume
	if g.Feasible > 0 || s.feasible {
		// BestValue is the objective's Worst sentinel until something is
		// feasible; only publish it once real.
		s.feasible = true
		s.bestValue = g.BestValue
	}
	feasible := s.feasible
	s.mu.Unlock()

	lat := s.genLat.Snapshot()
	ev := genEvent{
		Generation:       g.Generation,
		Feasible:         g.Feasible,
		UniqueGenomes:    g.UniqueGenomes,
		DistinctEvals:    g.DistinctEvals,
		ElapsedMicros:    g.Elapsed.Microseconds(),
		LatencyP50Micros: int64(lat.P50() / 1e3),
		LatencyP99Micros: int64(lat.P99() / 1e3),
		FrontSize:        g.FrontSize,
		Hypervolume:      g.Hypervolume,
	}
	if hr, ok := p.cacheHitRate(); ok {
		ev.CacheHitRate = &hr
	}
	if feasible {
		v := g.BestValue
		ev.BestValue = &v
	}
	if g.Feasible > 0 {
		m := g.MeanFitness
		ev.MeanFitness = &m
	}
	if b, err := json.Marshal(ev); err == nil {
		s.hub.publish(b)
	}
}

// progressHub broadcasts generation events to SSE subscribers. Delivery to
// live subscribers is best-effort (a stalled client drops events rather
// than stalling the search); the retained history bounds replay for late
// subscribers.
type progressHub struct {
	mu      sync.Mutex
	subs    map[chan []byte]struct{}
	history [][]byte
	closed  bool
}

// hubHistoryLimit bounds replayed events per subscriber; older generations
// are dropped from replay (live status carries the cumulative fields).
const hubHistoryLimit = 1024

// subChanBuffer is each subscriber's event buffer; a subscriber further
// behind than this loses events.
const subChanBuffer = 256

func newProgressHub() *progressHub {
	return &progressHub{subs: make(map[chan []byte]struct{})}
}

// publish broadcasts one event and retains it for replay.
func (h *progressHub) publish(b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, b)
	if len(h.history) > hubHistoryLimit {
		h.history = h.history[len(h.history)-hubHistoryLimit:]
	}
	for ch := range h.subs {
		select {
		case ch <- b:
		default: // slow subscriber: drop rather than block the search
		}
	}
}

// subscribe registers a new subscriber and returns its live channel, the
// replay backlog, and whether the stream is already complete.
func (h *progressHub) subscribe() (ch chan []byte, replay [][]byte, closed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([][]byte(nil), h.history...)
	if h.closed {
		return nil, replay, true
	}
	ch = make(chan []byte, subChanBuffer)
	h.subs[ch] = struct{}{}
	return ch, replay, false
}

// unsubscribe removes a subscriber.
func (h *progressHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, ch)
}

// subscribers reports the live subscriber count - tests use it to prove
// abandoned SSE handlers actually let go of the hub.
func (h *progressHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// close ends the stream: subscribers' channels are closed after any
// buffered events drain.
func (h *progressHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = make(map[chan []byte]struct{})
}
