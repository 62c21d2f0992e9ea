// Package resilience supervises fitness evaluation for long-running
// searches. In the paper's real deployment every evaluation is a
// minutes-to-hours EDA tool run (XST synthesis, ASIC place-and-route) that
// can hang, crash, or emit garbage; a production search strings thousands
// of them together. The Supervisor wraps any evaluator with:
//
//   - per-evaluation deadlines, enforced through the context that the GA
//     engine threads down the pool and the cache's singleflight path;
//   - bounded retry with exponential backoff and jitter, drawn from an
//     independent seeded RNG - never the run RNG, so search results stay
//     byte-identical whether or not faults occurred (retries are invisible
//     as long as they eventually succeed);
//   - a quarantine circuit breaker that demotes persistently failing
//     points to a permanent infeasible-with-penalty error, which the
//     evaluation cache memoizes deliberately - the same treatment the
//     paper's auxiliary hints give known-infeasible regions;
//   - garbage detection: NaN or infinite metric values are treated as a
//     transient tool failure, not a characterization.
//
// Error classification is the contract between this package and
// dataset.Cache: transient errors (dataset.IsTransient) are retried here
// and never memoized there; permanent errors mark the point infeasible and
// are cached like results.
//
// The package also provides crash recovery: Save/Load persist a full
// ga.Snapshot (generation, population, RNG state, convergence state,
// trajectory, cache contents and counters) to an atomically renamed file,
// and the sibling faulty package injects deterministic faults so every
// policy here is testable without real tools.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// Metric names the Supervisor and checkpoint Saver maintain.
const (
	MetricEvaluations    = "resilience.evaluations"
	MetricRetries        = "resilience.retries"
	MetricTimeouts       = "resilience.timeouts"
	MetricTransientErrs  = "resilience.transient_errors"
	MetricPermanentErrs  = "resilience.permanent_errors"
	MetricQuarantined    = "resilience.quarantined_points"
	MetricQuarantineHits = "resilience.quarantine_hits"
	MetricCheckpoints    = "resilience.checkpoints"
	MetricCheckpointMS   = "resilience.checkpoint_ms"
)

// checkpointMillisBounds bucket checkpoint write latency: in-memory-speed
// snapshots through slow network filesystems.
var checkpointMillisBounds = []float64{0.1, 1, 10, 100, 1_000, 10_000}

// ErrTimeout marks an evaluation attempt that exceeded its deadline. It is
// transient: the tool run was killed, the point is not known infeasible.
var ErrTimeout = errors.New("evaluation deadline exceeded")

// QuarantineError is the permanent error a quarantined point evaluates to:
// the circuit breaker tripped after repeated exhausted retries, and the
// point is demoted to infeasible (the GA assigns it the -Inf fitness
// penalty). The evaluation cache memoizes it deliberately, so a
// quarantined point costs no further tool runs.
type QuarantineError struct {
	Key      string
	Failures int
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("point %s quarantined after %d failed evaluation attempts", e.Key, e.Failures)
}

// Policy configures the Supervisor. The zero value gets defaults suited to
// flaky-but-recoverable tooling: 3 attempts, 100ms base backoff doubling to
// a 5s cap, quarantine after 2 exhausted-retry rounds, no deadline.
type Policy struct {
	// Timeout bounds each evaluation attempt (0 = no deadline). Deadlines
	// reach the tool through the attempt context, so only context-aware
	// evaluators can be interrupted mid-run.
	Timeout time.Duration
	// MaxAttempts is the total number of tries per evaluation, first
	// included (default 3).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it (default 100ms).
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth (default 5s).
	BackoffMax time.Duration
	// JitterSeed seeds the independent backoff-jitter RNG. The run RNG is
	// never consulted, so retries cannot perturb search results.
	JitterSeed int64
	// QuarantineAfter is how many consecutive exhausted-retry failures a
	// point survives before the circuit breaker quarantines it (default 2).
	QuarantineAfter int
	// Sleep replaces time.Sleep in tests (nil = time.Sleep). Backoff waits
	// are interruptible: cancellation of the evaluation context cuts them
	// short.
	Sleep func(time.Duration)
	// Tracer receives resilience.evaluate spans with resilience.attempt
	// children and pre-measured resilience.backoff waits (nil = tracing
	// off). Spans observe scheduling the supervisor already decided; the
	// backoff-jitter RNG is never consulted by tracing, so supervised
	// results stay byte-identical with tracing on or off.
	Tracer *trace.Tracer
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 100 * time.Millisecond
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 5 * time.Second
	}
	if p.QuarantineAfter == 0 {
		p.QuarantineAfter = 2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Validate rejects unusable policies with a clear error.
func (p Policy) Validate() error {
	if p.Timeout < 0 {
		return fmt.Errorf("resilience: timeout %v < 0", p.Timeout)
	}
	if p.MaxAttempts < 0 {
		return fmt.Errorf("resilience: max attempts %d < 0", p.MaxAttempts)
	}
	if p.BackoffBase < 0 || p.BackoffMax < 0 {
		return fmt.Errorf("resilience: negative backoff (base %v, max %v)", p.BackoffBase, p.BackoffMax)
	}
	if p.QuarantineAfter < 0 {
		return fmt.Errorf("resilience: quarantine threshold %d < 0", p.QuarantineAfter)
	}
	return nil
}

// Supervisor wraps an evaluator with the fault policy. It is safe for
// concurrent use - evaluation fans out across pool workers.
type Supervisor struct {
	space  *param.Space
	eval   dataset.ContextEvaluator
	policy Policy

	mu          sync.Mutex
	jitter      *rand.Rand
	failures    map[string]int
	quarantined map[string]int // key -> failures at quarantine time

	evals          *telemetry.Counter
	retries        *telemetry.Counter
	timeouts       *telemetry.Counter
	transientErrs  *telemetry.Counter
	permanentErrs  *telemetry.Counter
	quarantinedCtr *telemetry.Counter
	quarantineHits *telemetry.Counter
	breakerOpen    *telemetry.Gauge
}

// NewSupervisor builds a supervisor over a context-aware evaluator (a
// plain one goes through dataset.AdaptContext; deadlines then only bound
// the attempt budget, they cannot interrupt a stuck call). reg receives
// the supervisor's counters (retries, timeouts, breaker state); a nil reg
// records into a private registry. Its Evaluate method is the supervised
// evaluator, ready for dataset.NewCacheContext or core.SearchRequest's
// EvaluateCtx.
func NewSupervisor(space *param.Space, eval dataset.ContextEvaluator, policy Policy, reg *telemetry.Registry) (*Supervisor, error) {
	if space == nil || eval == nil {
		return nil, errors.New("resilience: nil space or evaluator")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Supervisor{
		space:          space,
		eval:           eval,
		policy:         policy.withDefaults(),
		jitter:         rand.New(rand.NewSource(policy.JitterSeed)),
		failures:       make(map[string]int),
		quarantined:    make(map[string]int),
		evals:          reg.Counter(MetricEvaluations),
		retries:        reg.Counter(MetricRetries),
		timeouts:       reg.Counter(MetricTimeouts),
		transientErrs:  reg.Counter(MetricTransientErrs),
		permanentErrs:  reg.Counter(MetricPermanentErrs),
		quarantinedCtr: reg.Counter(MetricQuarantined),
		quarantineHits: reg.Counter(MetricQuarantineHits),
		breakerOpen:    reg.Gauge("resilience.breaker_open"),
	}, nil
}

// PlainEvaluator adapts the supervisor for context-blind callers (e.g.
// dataset.Build); per-attempt timeouts and retries still apply.
func (s *Supervisor) PlainEvaluator() dataset.Evaluator {
	return func(pt param.Point) (metrics.Metrics, error) {
		return s.Evaluate(context.Background(), pt)
	}
}

// Quarantined returns the keys of quarantined points, sorted.
func (s *Supervisor) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.quarantined))
	for k := range s.quarantined {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// backoff returns the jittered delay before retry attempt (1-based):
// exponential growth from BackoffBase capped at BackoffMax, scaled by a
// uniform factor in [0.5, 1.0) from the independent jitter RNG.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.policy.BackoffBase << uint(attempt-1)
	if d > s.policy.BackoffMax || d <= 0 { // <=0 guards shift overflow
		d = s.policy.BackoffMax
	}
	s.mu.Lock()
	f := 0.5 + 0.5*s.jitter.Float64()
	s.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// garbage reports whether a tool returned metrics containing NaN or
// infinite values - output to be discarded and retried, never cached.
func garbage(m metrics.Metrics) bool {
	for _, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Evaluate runs one supervised evaluation of pt under ctx. The returned
// error is either transient (dataset.IsTransient: retries exhausted or ctx
// canceled - never memoized by the cache) or permanent (infeasible point or
// quarantine - memoized deliberately).
func (s *Supervisor) Evaluate(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
	key := s.space.Key(pt)

	tracing := s.policy.Tracer.Enabled()
	var esp trace.Active
	if tracing {
		esp = s.policy.Tracer.Start("resilience.evaluate")
		defer esp.End()
	}

	s.mu.Lock()
	failures, quarantined := s.quarantined[key]
	s.mu.Unlock()
	if quarantined {
		s.quarantineHits.Inc()
		return nil, &QuarantineError{Key: key, Failures: failures}
	}

	var lastErr error
	for attempt := 1; attempt <= s.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			s.retries.Inc()
			wait := s.backoff(attempt - 1)
			var backoffStart time.Time
			if tracing {
				backoffStart = time.Now()
			}
			done := make(chan struct{})
			go func() { s.policy.Sleep(wait); close(done) }()
			interrupted := false
			select {
			case <-done:
			case <-ctx.Done():
				interrupted = true
			}
			if tracing {
				esp.Emit("resilience.backoff", backoffStart, time.Since(backoffStart))
			}
			if interrupted {
				return nil, dataset.MarkTransient(ctx.Err())
			}
		}

		var asp trace.Active
		if tracing {
			asp = esp.Child("resilience.attempt")
		}
		actx := ctx
		cancel := func() {}
		if s.policy.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.policy.Timeout)
		}
		m, err := s.eval(actx, pt)
		timedOut := actx.Err() == context.DeadlineExceeded && ctx.Err() == nil
		cancel()
		asp.End()

		switch {
		case err == nil && garbage(m):
			s.transientErrs.Inc()
			lastErr = dataset.MarkTransient(fmt.Errorf("point %s: evaluator returned non-finite metrics", key))
		case err == nil:
			s.mu.Lock()
			delete(s.failures, key)
			s.mu.Unlock()
			s.evals.Inc()
			return m, nil
		case ctx.Err() != nil:
			// The run itself was canceled (not a per-attempt deadline):
			// surface transiently so nothing is memoized on shutdown.
			return nil, dataset.MarkTransient(ctx.Err())
		case timedOut || errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Inc()
			lastErr = dataset.MarkTransient(fmt.Errorf("point %s: %w", key, ErrTimeout))
		case dataset.IsTransient(err):
			s.transientErrs.Inc()
			lastErr = err
		default:
			// Permanent: the point is infeasible. No retry, memoized.
			s.permanentErrs.Inc()
			s.evals.Inc()
			return nil, err
		}
	}

	// Retries exhausted. Record the failure round; quarantine the point
	// once it has failed QuarantineAfter consecutive rounds.
	s.mu.Lock()
	s.failures[key]++
	rounds := s.failures[key]
	trip := rounds >= s.policy.QuarantineAfter
	if trip {
		delete(s.failures, key)
		s.quarantined[key] = rounds
		open := len(s.quarantined)
		s.mu.Unlock()
		s.quarantinedCtr.Inc()
		s.breakerOpen.Set(float64(open))
		return nil, &QuarantineError{Key: key, Failures: rounds}
	}
	s.mu.Unlock()
	return nil, dataset.MarkTransient(fmt.Errorf("point %s: %d attempts failed: %w", key, s.policy.MaxAttempts, lastErr))
}
