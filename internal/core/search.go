package core

import (
	"context"
	"fmt"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// Search modes. The zero value is ModeScalar, the paper's single-objective
// guided GA.
const (
	// ModeScalar optimizes the single req.Objective (the default).
	ModeScalar = "scalar"
	// ModePareto optimizes req.Objectives (two or more) simultaneously with
	// NSGA-II-style non-dominated sorting and crowding-distance selection;
	// the Result carries the full non-dominated Front plus its Hypervolume
	// (two objectives) alongside the primary-best scalar fields.
	ModePareto = "pareto"
	// ModePortfolio races the guided GA, the unguided baseline GA, and
	// simulated annealing concurrently over one shared dedup cache, merging
	// deterministically; Result.Portfolio reports each strategy's outcome.
	ModePortfolio = "portfolio"
)

// SearchRequest names everything a Nautilus search needs: the
// characterized space, the objective (or objective vector), exactly one
// evaluator form, and the GA scale. Cross-cutting concerns - guidance,
// telemetry, resilience, batching, checkpointing - attach as SearchOptions
// rather than widening this struct or the Search signature.
type SearchRequest struct {
	// Space is the design space to search.
	Space *param.Space
	// Mode selects the search shape: ModeScalar ("" or "scalar", the
	// default), ModePareto, or ModePortfolio.
	Mode string
	// Objective scores evaluated metrics (scalar and portfolio modes).
	Objective metrics.Objective
	// Objectives is the multi-objective vector for ModePareto (two or
	// more; Objectives[0] is the primary objective that scalar reporting
	// fields describe). Must be empty in the other modes, where the single
	// Objective field applies.
	Objectives []metrics.Objective
	// Evaluate characterizes one design point. Exactly one of Evaluate and
	// EvaluateCtx must be set.
	Evaluate dataset.Evaluator
	// EvaluateCtx is the context-aware evaluator form: per-evaluation
	// deadlines and run-level cancellation reach the underlying tool run.
	EvaluateCtx dataset.ContextEvaluator
	// Config is the GA scale and operator configuration. Options layered on
	// top of the request (WithRecorder, WithCheckpoint, ...) take precedence
	// over the corresponding Config fields.
	Config ga.Config
}

// SearchOption customizes one Search call.
type SearchOption func(*searchConfig)

type searchConfig struct {
	guidance  *Guidance
	policy    *resilience.Policy
	registry  *telemetry.Registry
	overrides []func(*ga.Config)
}

// WithGuidance applies hint-guided mutation (nil or zero-confidence
// guidance degrades to the unguided baseline). When a recorder is active,
// the run is handed a recording copy of g; the caller's guidance is never
// mutated.
func WithGuidance(g *Guidance) SearchOption {
	return func(c *searchConfig) { c.guidance = g }
}

// WithRecorder attaches structured run telemetry (generations,
// evaluations, cache lookups, pool scheduling, hint applications).
// Recording is observational only: results are byte-identical with it on
// or off.
func WithRecorder(rec telemetry.Recorder) SearchOption {
	return func(c *searchConfig) {
		if rec != nil {
			c.override(func(cfg *ga.Config) { cfg.Recorder = rec })
		}
	}
}

// WithTracer attaches span-based latency tracing: per-generation
// ga.generation spans with dispatch/selection/crossover/mutation phases,
// the cache's batch-resolve phases, and - when a resilience policy is
// also attached and its own Tracer is unset - supervisor attempt/backoff
// spans. Like recording, tracing is observational only: span identity
// comes from the tracer's own seeded stream, never the run RNG, so
// results are byte-identical with tracing on or off.
func WithTracer(tr *trace.Tracer) SearchOption {
	return func(c *searchConfig) {
		if tr != nil {
			c.override(func(cfg *ga.Config) { cfg.Tracer = tr })
		}
	}
}

// WithResilience wraps the evaluator in a resilience.Supervisor built from
// policy: per-attempt deadlines, bounded seeded-jitter retries, and the
// quarantine circuit breaker. reg (optional) receives the supervisor's
// counters. Callers that need the supervisor afterwards (e.g. to list
// Quarantined points) should construct it themselves and pass its
// Evaluator as EvaluateCtx instead.
func WithResilience(policy resilience.Policy, reg *telemetry.Registry) SearchOption {
	return func(c *searchConfig) {
		p := policy
		c.policy, c.registry = &p, reg
	}
}

// WithBatchBackend routes each generation's residual cache misses to b as
// whole batches (see dataset.Cache.SetBatchBackend).
func WithBatchBackend(b dataset.BatchEvaluator) SearchOption {
	return func(c *searchConfig) {
		c.override(func(cfg *ga.Config) { cfg.BatchBackend = b })
	}
}

// WithCheckpoint saves a resumable snapshot through save every `every`
// generations (and once more on cancellation).
func WithCheckpoint(save func(*ga.Snapshot) error, every int) SearchOption {
	return func(c *searchConfig) {
		c.override(func(cfg *ga.Config) {
			cfg.Checkpoint = save
			cfg.CheckpointEvery = every
		})
	}
}

// WithMigration makes the run one island of an island-model search: every
// m.Interval generations its best genomes travel through m.Exchange and
// the returned immigrants join the population (see ga.Migration for the
// determinism contract). nil is a no-op.
func WithMigration(m *ga.Migration) SearchOption {
	return func(c *searchConfig) {
		if m != nil {
			c.override(func(cfg *ga.Config) { cfg.Migration = m })
		}
	}
}

// WithResume starts the run from a previously checkpointed snapshot.
func WithResume(snap *ga.Snapshot) SearchOption {
	return func(c *searchConfig) {
		c.override(func(cfg *ga.Config) { cfg.Resume = snap })
	}
}

// override queues a ga.Config mutation applied after the request's Config
// is copied, so options win over request fields.
func (c *searchConfig) override(f func(*ga.Config)) {
	c.overrides = append(c.overrides, f)
}

// Search executes one Nautilus search described by req: a GA over
// req.Space under req.Config, optionally guided, supervised, and recorded
// via opts. It is the single entry point an IP generator embeds; omitting
// WithGuidance runs the unguided baseline GA, the paper's comparison
// point. req.Mode widens the shape - ModePareto swaps in
// NSGA-II selection over req.Objectives, ModePortfolio races three
// strategies over one shared dedup cache - without changing the signature
// or the determinism contract.
//
// Canceling ctx stops the search at the next evaluation boundary; with a
// checkpoint configured the engine writes a final snapshot first and the
// returned Result has Interrupted set.
func Search(ctx context.Context, req SearchRequest, opts ...SearchOption) (ga.Result, error) {
	var sc searchConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&sc)
		}
	}

	eval := req.EvaluateCtx
	switch {
	case req.Evaluate != nil && req.EvaluateCtx != nil:
		return ga.Result{}, fmt.Errorf("core: SearchRequest sets both Evaluate and EvaluateCtx")
	case req.Evaluate != nil:
		eval = dataset.AdaptContext(req.Evaluate)
	case req.EvaluateCtx == nil:
		return ga.Result{}, fmt.Errorf("core: SearchRequest needs an evaluator")
	}

	cfg := req.Config
	for _, f := range sc.overrides {
		f(&cfg)
	}
	if sc.policy != nil {
		p := *sc.policy
		if p.Tracer == nil {
			p.Tracer = cfg.Tracer
		}
		sup, err := resilience.NewSupervisor(req.Space, eval, p, sc.registry)
		if err != nil {
			return ga.Result{}, err
		}
		eval = sup.Evaluate
	}

	switch req.Mode {
	case "", ModeScalar:
		if len(req.Objectives) > 0 {
			return ga.Result{}, fmt.Errorf("core: Objectives requires Mode %q (got %q)", ModePareto, req.Mode)
		}
	case ModePareto:
		engine, err := ga.NewMultiContext(req.Space, req.Objectives, eval, cfg, sc.strategy(&cfg))
		if err != nil {
			return ga.Result{}, err
		}
		return engine.RunContext(ctx)
	case ModePortfolio:
		if len(req.Objectives) > 0 {
			return ga.Result{}, fmt.Errorf("core: Objectives requires Mode %q (got %q)", ModePareto, ModePortfolio)
		}
		return searchPortfolio(ctx, req, eval, cfg, &sc)
	default:
		return ga.Result{}, fmt.Errorf("core: unknown search mode %q", req.Mode)
	}

	engine, err := ga.NewContext(req.Space, req.Objective, eval, cfg, sc.strategy(&cfg))
	if err != nil {
		return ga.Result{}, err
	}
	return engine.RunContext(ctx)
}

// strategy resolves the run's mutation strategy: the configured guidance
// (wrapped with the recorder when one is active) or nil for the unguided
// baseline.
func (c *searchConfig) strategy(cfg *ga.Config) ga.Strategy {
	g := c.guidance
	if g == nil {
		return nil
	}
	if cfg.Recorder != nil {
		g = g.WithRecorder(cfg.Recorder)
	}
	return g
}
