package core

import (
	"context"
	"fmt"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
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
// evaluator form, and the GA configuration - scale, operators,
// checkpointing, resume, the shared cache and migration all live in Config.
// Guidance and the trace stream attach as SearchOptions.
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
	// A supervised search passes a resilience.Supervisor's Evaluate here.
	EvaluateCtx dataset.ContextEvaluator
	// Config is the GA configuration the run uses as given, except that a
	// non-nil WithTracer stream replaces Config.Tracer and WithRecorder
	// sinks extend it.
	Config ga.Config
}

// SearchOption customizes one Search call.
type SearchOption func(*searchConfig)

type searchConfig struct {
	guidance *Guidance
	tracer   *trace.Tracer
	sinks    []trace.Sink
}

// WithGuidance applies hint-guided mutation (nil or zero-confidence
// guidance degrades to the unguided baseline). Each engine gets its own
// copy of g, reporting hint decisions to the run's trace stream; the
// caller's guidance is never mutated.
func WithGuidance(g *Guidance) SearchOption {
	return func(c *searchConfig) { c.guidance = g }
}

// WithRecorder adds sink to the run's trace stream (creating the stream
// when no WithTracer is given): it then receives every span and run-event
// record - generations, evaluations, cache lookups, pool scheduling, hint
// applications. Like the rest of the stream it is observational only.
func WithRecorder(sink trace.Sink) SearchOption {
	return func(c *searchConfig) {
		if sink != nil {
			c.sinks = append(c.sinks, sink)
		}
	}
}

// WithTracer attaches the run's trace stream, replacing Config.Tracer
// (nil keeps it): per-generation ga.generation spans with
// dispatch/selection/crossover/mutation phases, the cache's batch-resolve
// phases, and every run-event record. The stream is observational only:
// span identity comes from the tracer's own seeded stream, never the run
// RNG, so results are byte-identical with it on or off.
func WithTracer(tr *trace.Tracer) SearchOption {
	return func(c *searchConfig) { c.tracer = tr }
}

// Search executes one Nautilus search described by req: a GA over
// req.Space under req.Config, optionally guided and traced via opts. It is
// the single entry point an IP generator embeds; omitting WithGuidance
// runs the unguided baseline GA, the paper's comparison point. req.Mode
// widens the shape - ModePareto swaps in NSGA-II selection over
// req.Objectives, ModePortfolio races three strategies over one shared
// dedup cache - without changing the signature or the determinism
// contract.
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
	if sc.tracer != nil {
		cfg.Tracer = sc.tracer
	}
	if len(sc.sinks) > 0 {
		cfg.Tracer = cfg.Tracer.With(sc.sinks...)
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

// strategy resolves one engine's mutation strategy: its own copy of the
// configured guidance, reporting to the run's trace stream, or nil for the
// unguided baseline.
func (c *searchConfig) strategy(cfg *ga.Config) ga.Strategy {
	if c.guidance == nil {
		return nil
	}
	return c.guidance.WithTracer(cfg.Tracer)
}
