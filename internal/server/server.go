// Package server turns the Nautilus search engine into a long-running
// service: clients submit search jobs over a JSON API, the server runs each
// as a supervised session on a bounded, fairly shared evaluation budget,
// and sessions survive process restarts through resilience checkpoints.
//
// Two properties carry over from the CLI unchanged and are load-bearing:
//
//   - Determinism. A session's result is byte-identical to a solo nautilus
//     CLI run of the same (ip, query, guidance, hints, seed, scale), no
//     matter how many other sessions run beside it or where its
//     evaluations are answered from.
//   - Paper accounting. Each session keeps its own distinct-evaluation
//     count, exactly as if it ran alone. Cross-session reuse shows up one
//     level down: all sessions on the same IP share one process-wide
//     dataset.Cache, whose distinct count stays below the sum of the
//     sessions' counts whenever they overlap.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"nautilus/internal/catalog"
	"nautilus/internal/cluster"
	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/faultnet"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// Metric names the server maintains in its registry, alongside the
// aggregated ga.* / cache.* metrics from the global collector.
const (
	MetricSessionsStarted  = "server.sessions_started"
	MetricSessionsResumed  = "server.sessions_resumed"
	MetricSessionsDone     = "server.sessions_done"
	MetricSessionsFailed   = "server.sessions_failed"
	MetricSessionsCanceled = "server.sessions_canceled"
	MetricSessionsActive   = "server.sessions_active"
	MetricSchedulerBusy    = "scheduler.busy"
	MetricSchedulerWaiting = "scheduler.waiting"
	MetricSchedulerGrants  = "scheduler.grants"
)

// Options configures a Server.
type Options struct {
	// StateDir is the persistence root (required). A server restarted on
	// the same directory resumes every session that was running.
	StateDir string
	// Workers is the global evaluation budget shared across all sessions
	// (default GOMAXPROCS).
	Workers int
	// MaxSessions bounds concurrently running sessions; 0 means unlimited.
	MaxSessions int
	// CheckpointEvery is the generation cadence of session checkpoints
	// (default 5; drain always writes a final one regardless).
	CheckpointEvery int
	// EvalDelay stalls every real (shared-cache-miss) evaluation by this
	// duration, simulating synthesis cost. Tests use it to hold sessions
	// in flight; production leaves it 0.
	EvalDelay time.Duration
	// Registry receives server, scheduler, and aggregated run metrics
	// (default: a fresh registry, exposed at /metrics).
	Registry *telemetry.Registry
	// Network is the transport Listen binds through (default
	// faultnet.System, i.e. real TCP). Tests and the fault harness swap in
	// an in-memory or fault-injecting network; the server is agnostic.
	Network faultnet.Network
	// Cluster, when set, joins this server to a nautserve cluster: shared
	// caches shard over a consistent-hash ring, sessions run as island-model
	// searches across the membership, and /v1 job routes proxy to owners.
	Cluster *ClusterOptions
}

// Server owns the session table, the shared per-IP caches, and the global
// evaluation scheduler.
type Server struct {
	opts   Options
	reg    *telemetry.Registry
	global *telemetry.Collector
	sched  *scheduler
	store  *store
	// http holds per-route request metrics; durs aggregates every
	// session's span durations into the process-wide per-phase latency
	// histograms. Both feed /metrics.
	http *httpStats
	durs *trace.Durations

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// clusterHTTP proxies /v1 job requests to peers over opts.Network;
	// nil on a solo server.
	clusterHTTP *http.Client

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session IDs in submission order
	nextSeq  int
	running  int
	draining bool
	shared   map[string]*dataset.Cache // per-IP process-wide cache
	cluster  *cluster.Node             // nil on a solo server

	started  *telemetry.Counter
	resumed  *telemetry.Counter
	done     *telemetry.Counter
	failed   *telemetry.Counter
	canceled *telemetry.Counter
	active   *telemetry.Gauge
}

// sessionKey carries the owning session's ID through the shared cache into
// the scheduler, so slots are accounted to the right tenant.
type sessionKey struct{}

// New builds a server over opts.StateDir and resumes every session a
// previous life left running or interrupted there.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 5
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Network == nil {
		opts.Network = faultnet.System{}
	}
	st, err := newStore(opts.StateDir)
	if err != nil {
		return nil, err
	}
	global := telemetry.NewCollector(opts.Registry)
	// The daemon aggregates unbounded runs; keep only the aggregates.
	global.DisableGenerationRetention()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		reg:        opts.Registry,
		global:     global,
		sched:      newScheduler(opts.Workers, opts.Registry),
		store:      st,
		http:       newHTTPStats(),
		durs:       trace.NewDurations(),
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   make(map[string]*session),
		shared:     make(map[string]*dataset.Cache),
		started:    opts.Registry.Counter(MetricSessionsStarted),
		resumed:    opts.Registry.Counter(MetricSessionsResumed),
		done:       opts.Registry.Counter(MetricSessionsDone),
		failed:     opts.Registry.Counter(MetricSessionsFailed),
		canceled:   opts.Registry.Counter(MetricSessionsCanceled),
		active:     opts.Registry.Gauge(MetricSessionsActive),
	}
	// The cluster node comes up before restore, so resumed sessions (and
	// the peers' first cache lookups) already see the ring.
	if opts.Cluster != nil {
		if err := s.initCluster(); err != nil {
			cancel()
			return nil, err
		}
	}
	if err := s.restore(); err != nil {
		cancel()
		s.closeCluster()
		return nil, err
	}
	return s, nil
}

// restore replays the state directory: terminal sessions become queryable
// records, running/interrupted ones restart from their checkpoint (or from
// scratch if none was written yet - determinism makes that equivalent).
func (s *Server) restore() error {
	recs, err := s.store.loadAll()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		entry, guid, objs, rerr := rec.Spec.resolve()
		if rerr != nil {
			// The record predates a spec-breaking change; surface it as a
			// failed session rather than refusing to start.
			sess := newSession(rec.ID, rec.Seq, rec.Spec, nil, nil, nil)
			sess.finish(StateFailed, fmt.Sprintf("unresolvable after restart: %v", rerr), nil)
			s.register(sess)
			continue
		}
		sess := newSession(rec.ID, rec.Seq, rec.Spec, entry, guid, objs)
		// Running (crashed mid-flight) and interrupted (drained) sessions
		// resume; done/failed/canceled stay terminal.
		if rec.State.terminal() && rec.State != StateInterrupted {
			var res *JobResult
			if rec.State == StateDone {
				if res, err = s.store.loadResult(rec.ID); err != nil {
					return err
				}
				if res != nil {
					sess.feasible = true
					sess.bestValue = res.BestValue
					sess.distinct = res.DistinctEvals
					sess.gen = res.Generations
					sess.frontSize = len(res.Front)
					sess.hypervolume = res.Hypervolume
				}
			}
			sess.finish(rec.State, rec.Error, res)
			s.register(sess)
			continue
		}
		var resume *ga.Snapshot
		if snap, lerr := resilience.Load(s.store.checkpointPath(rec.ID), entry.Space, rec.Spec.Seed); lerr == nil {
			resume = snap
		}
		sess.resumed = true
		s.resumed.Inc()
		s.register(sess)
		s.start(sess, resume)
	}
	return nil
}

// register adds a session to the table (terminal or about to start).
func (s *Server) register(sess *session) {
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.order = append(s.order, sess.id)
	if sess.seq > s.nextSeq {
		s.nextSeq = sess.seq
	}
	s.mu.Unlock()
}

// Submit validates a job spec, persists it, and starts its session.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	spec = spec.withDefaults(s.opts.Workers)
	entry, guid, objs, err := spec.resolve()
	if err != nil {
		return JobStatus{}, &BadRequestError{Err: err}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if s.opts.MaxSessions > 0 && s.running >= s.opts.MaxSessions {
		s.mu.Unlock()
		return JobStatus{}, ErrTooManySessions
	}
	s.nextSeq++
	// Clustered IDs embed the minting node, so any member can route a job
	// request to its owner (see jobOwner/proxyJob).
	id := fmt.Sprintf("job-%06d", s.nextSeq)
	if co := s.opts.Cluster; co != nil {
		id = fmt.Sprintf("job-%s-%06d", co.NodeID, s.nextSeq)
	}
	sess := newSession(id, s.nextSeq, spec, entry, guid, objs)
	s.sessions[id] = sess
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.store.saveJob(jobRecord{ID: id, Seq: sess.seq, Spec: spec, State: StateRunning}); err != nil {
		sess.finish(StateFailed, err.Error(), nil)
		return JobStatus{}, err
	}
	s.start(sess, nil)
	return sess.status(), nil
}

// start launches the session goroutine. The caller has already registered
// and persisted the session.
func (s *Server) start(sess *session, resume *ga.Snapshot) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	sess.mu.Lock()
	sess.cancel = cancel
	sess.mu.Unlock()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	s.started.Inc()
	s.active.Set(float64(s.runningCount()))
	s.wg.Add(1)
	go s.run(ctx, sess, resume)
}

func (s *Server) runningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// run executes one session to a terminal state.
func (s *Server) run(ctx context.Context, sess *session, resume *ga.Snapshot) {
	defer s.wg.Done()
	// The search stacks its private cache on the process-wide shared one:
	// it still counts each evaluation as its own (paper accounting), but
	// only the first search across the whole process (or, clustered, the
	// whole cluster) pays for it, and every evaluation it does pay for is
	// charged to the session's scheduler tenant.
	ctx = context.WithValue(ctx, sessionKey{}, sess.id)
	shared := s.sharedCacheFor(sess.entry)
	cfg := ga.Config{
		PopulationSize: sess.spec.Population,
		Generations:    sess.spec.Generations,
		Seed:           sess.spec.Seed,
		Parallelism:    sess.spec.Parallelism,
		Resume:         resume,
		Shared:         shared,
	}
	// Portfolio sessions never checkpoint: a race is three interleaved
	// searches whose shared-cache state is not a ga.Snapshot, and core
	// rejects the combination. Determinism makes a drain/restart re-run
	// the identical race from scratch instead. Scalar and pareto sessions
	// checkpoint as usual (a pareto snapshot restores its archive from the
	// cache entries, so resumed fronts are byte-identical too).
	if sess.spec.Mode != core.ModePortfolio {
		saver := resilience.NewSaver(s.store.checkpointPath(sess.id), sess.entry.Space, sess.col.Registry())
		cfg.Checkpoint = saver.Save
		cfg.CheckpointEvery = s.opts.CheckpointEvery
	}
	// The session's one trace stream feeds its live progress (status, SSE,
	// /v1/sessions), its private collector (/debug/sessions), the
	// server-wide collector (/metrics), its span flight recorder (the last
	// spans, dumped by /debug/sessions), and the server-wide per-phase
	// duration histograms on /metrics. Span IDs come from the tracer's own
	// seeded stream and no sink touches the run RNG, so session results
	// stay byte-identical to an unobserved CLI run.
	cfg.Tracer = trace.New(trace.Config{
		Session: sess.id,
		Seed:    sess.spec.Seed,
		Sinks:   []trace.Sink{sess.progress, sess.col, s.global, sess.ring, s.durs},
	})
	var res ga.Result
	var err error
	if s.clusterNode() != nil && resume == nil && sess.spec.Mode != core.ModePortfolio {
		// Clustered sessions fan out as island-model searches across the
		// membership (pareto islands migrate front members and the
		// coordinator merges their fronts). They never checkpoint mid-run
		// (islands are pure in their specs), so an interrupted one restarts
		// from scratch after a drain - determinism makes that the same
		// search. Portfolio races stay local: the race already multiplexes
		// three strategies over the shared cache (remote tier included), so
		// the cluster still pays for each distinct point once.
		res, err = s.searchCluster(ctx, sess)
	} else {
		res, err = core.Search(ctx, core.SearchRequest{
			Space:       sess.entry.Space,
			Mode:        sess.spec.Mode,
			Objective:   sess.entry.Objective,
			Objectives:  sess.objs,
			EvaluateCtx: shared.EvaluateCtx,
			Config:      cfg,
		}, core.WithGuidance(sess.guid))
	}

	var state State
	var msg string
	var result *JobResult
	switch {
	case err != nil:
		state, msg = StateFailed, err.Error()
	case res.Interrupted:
		sess.mu.Lock()
		user := sess.userCancel
		sess.mu.Unlock()
		if user {
			state, msg = StateCanceled, "canceled by client"
		} else {
			state, msg = StateInterrupted, "interrupted by server shutdown"
		}
	case res.BestPoint == nil:
		state, msg = StateFailed, "no feasible design found"
	default:
		state = StateDone
		result = s.buildResult(ctx, sess, shared, res)
	}

	if result != nil {
		if serr := s.store.saveResult(result); serr != nil && state == StateDone {
			state, msg, result = StateFailed, serr.Error(), nil
		}
	}
	_ = s.store.saveJob(jobRecord{ID: sess.id, Seq: sess.seq, Spec: sess.spec, State: state, Error: msg})
	sess.finish(state, msg, result)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.active.Set(float64(s.runningCount()))
	switch state {
	case StateDone:
		s.done.Inc()
	case StateFailed:
		s.failed.Inc()
	case StateCanceled:
		s.canceled.Inc()
	}
}

// buildResult assembles the final payload for a finished search. The best
// point's metrics come from the shared cache, where the search memoized
// them, so reading them costs a hit (a remote hit on a clustered
// coordinator) rather than another evaluator run. The lookup ignores a
// cancel of ctx: a drain that lands after the search ended must not
// blank a finished result's metrics.
func (s *Server) buildResult(ctx context.Context, sess *session, shared *dataset.Cache, res ga.Result) *JobResult {
	space := sess.entry.Space
	params := make(map[string]string, space.Len())
	for i := 0; i < space.Len(); i++ {
		params[space.Param(i).Name()] = space.Param(i).StringValue(res.BestPoint[i])
	}
	m, _ := shared.EvaluateCtx(context.WithoutCancel(ctx), res.BestPoint)
	gens := -1
	if n := len(res.Trajectory); n > 0 {
		gens = res.Trajectory[n-1].Generation
	}
	out := &JobResult{
		ID:            sess.id,
		BestValue:     res.BestValue,
		Configuration: space.Describe(res.BestPoint),
		Params:        params,
		Key:           space.Key(res.BestPoint),
		Metrics:       m,
		DistinctEvals: res.DistinctEvals,
		TotalQueries:  res.Cache.Total,
		CacheHits:     res.Cache.Hits,
		HitRate:       res.Cache.HitRate,
		Converged:     res.Converged,
		Generations:   gens,
		Hypervolume:   res.Hypervolume,
		Nadir:         res.Nadir,
		Portfolio:     res.Portfolio,
	}
	if len(res.Front) > 0 {
		out.Objectives = append([]string(nil), sess.spec.Queries...)
		out.Front = make([]ParetoPoint, len(res.Front))
		for i, fp := range res.Front {
			pt := fp.Point
			out.Front[i] = ParetoPoint{
				Key:           space.Key(pt),
				Configuration: space.Describe(pt),
				Values:        fp.Values,
			}
		}
	}
	return out
}

// sharedCacheFor returns the process-wide cache for the entry's IP,
// creating it on first use. The underlying evaluator acquires a scheduler
// slot per evaluation, so the global worker budget bounds real work while
// cache hits stay free.
func (s *Server) sharedCacheFor(entry *catalog.Entry) *dataset.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.shared[entry.IP]; ok {
		return c
	}
	eval := entry.Eval
	base := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		sid, _ := ctx.Value(sessionKey{}).(string)
		if err := s.sched.Acquire(ctx, sid); err != nil {
			return nil, dataset.MarkTransient(err)
		}
		defer s.sched.Release(sid)
		if d := s.opts.EvalDelay; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, dataset.MarkTransient(ctx.Err())
			}
		}
		return eval(pt)
	}
	c := dataset.NewCacheContext(entry.Space, base)
	// On a clustered server the shared cache gains the ring's remote tier:
	// misses whose hash another node owns are answered by that peer (one
	// evaluation per cluster), degrading to local evaluation when the peer
	// is unreachable.
	if s.cluster != nil {
		c.SetRemote(s.cluster.RemoteFor(entry.IP))
	}
	s.shared[entry.IP] = c
	return c
}

// SharedCacheStats reports the per-IP shared cache accounting: the
// process-wide deduplication sessions benefit from.
func (s *Server) SharedCacheStats() map[string]dataset.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]dataset.CacheStats, len(s.shared))
	for ip, c := range s.shared {
		out[ip] = c.Stats()
	}
	return out
}

// get returns the named session.
func (s *Server) get(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// Status returns one session's status.
func (s *Server) Status(id string) (JobStatus, error) {
	sess, err := s.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return sess.status(), nil
}

// List returns every session's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if sess, err := s.get(id); err == nil {
			out = append(out, sess.status())
		}
	}
	return out
}

// Result returns a completed session's result.
func (s *Server) Result(id string) (*JobResult, error) {
	sess, err := s.get(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case sess.state == StateDone && sess.result != nil:
		return sess.result, nil
	case sess.state == StateRunning:
		return nil, ErrNotReady
	default:
		return nil, &FailedError{State: sess.state, Message: sess.errMsg}
	}
}

// Cancel stops a running session on behalf of the client; it finishes as
// canceled and will not resume after a restart. Canceling a terminal
// session is a no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	sess, err := s.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	sess.stop(true)
	return sess.status(), nil
}

// Wait blocks until the session reaches a terminal state or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	sess, err := s.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case <-sess.done:
		return sess.status(), nil
	case <-ctx.Done():
		return sess.status(), ctx.Err()
	}
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: submissions are refused, every
// running session is canceled (the GA engine drains its evaluation pool
// and writes a final boundary checkpoint), and Drain returns once all
// sessions have persisted a terminal state - or ctx expires. A server
// restarted on the same state directory resumes every interrupted session
// to the result it would have reached uninterrupted.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.stop(false)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeCluster()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		s.closeCluster()
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Registry exposes the server's metric registry (for the debug endpoint).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Listen binds a TCP listener on addr through the server's configured
// Network - real sockets by default, an in-memory or fault-injecting
// stack when one was swapped in.
func (s *Server) Listen(addr string) (net.Listener, error) {
	return s.opts.Network.Listen("tcp", addr)
}

// SpanSink exposes the server's span-duration sink, the one feeding the
// per-phase latency histograms on /metrics. External span sources (the
// fault harness, future cluster RPC) attach tracers to it so their
// events land beside the engine's phases.
func (s *Server) SpanSink() trace.Sink { return s.durs }
