// ModePortfolio: race diverse search strategies over one shared dedup
// cache. The guided GA, the unguided baseline GA, and simulated annealing
// all walk the same space concurrently; every strategy's evaluations land
// in a shared singleflight cache layered under each strategy's private
// one (exactly the server's session-over-shared-cache arrangement), so a
// design point any strategy has characterized is free for the others and
// the whole race costs roughly one search's worth of evaluator calls.
// The merge is deterministic: each strategy is seeded independently and
// is itself byte-identical across parallelism, and the winner is chosen
// by objective comparison with lowest-strategy-index tie-breaking.
package core

import (
	"context"
	"fmt"
	"sync"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/search"
)

// Portfolio strategy names, in race (and tie-break) order.
const (
	StrategyGuided   = "guided"
	StrategyBaseline = "baseline"
	StrategyAnneal   = "anneal"
)

// strategySeed derives the per-strategy RNG seed from the request seed: a
// splitmix64-style mix keyed by the strategy index. Index 0 (the guided
// lead) keeps the request seed unchanged, so the portfolio's lead strategy
// reproduces the equivalent solo run byte for byte.
func strategySeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// searchPortfolio runs the strategy race. eval is the fully resolved (and,
// when configured, supervision-wrapped) evaluator; cfg is the effective GA
// configuration after option overrides.
func searchPortfolio(ctx context.Context, req SearchRequest, eval dataset.ContextEvaluator, cfg ga.Config, sc *searchConfig) (ga.Result, error) {
	// Checkpoint/resume snapshots describe a single GA run; a portfolio is
	// three interleaved searches whose shared-cache state is not a Snapshot.
	// Portfolio runs are cheap to restart from scratch (determinism makes
	// the re-run identical), so the combination is rejected rather than
	// half-supported.
	if cfg.Resume != nil || cfg.Checkpoint != nil {
		return ga.Result{}, fmt.Errorf("core: portfolio mode does not support checkpoint/resume; restart the search instead")
	}
	if cfg.Migration != nil {
		return ga.Result{}, fmt.Errorf("core: portfolio mode does not compose with migration")
	}

	// The shared dedup tier: every strategy's private cache forwards its
	// misses here, so the raw evaluator sees each distinct design point at
	// most once across the whole race.
	shared := dataset.NewCacheContext(req.Space, eval)
	sharedEval := shared.EvaluateCtx

	type entry struct {
		name string
		run  func(context.Context) (ga.Result, error)
	}
	var entries []entry

	// Lead strategy: guided when guidance is configured (the trace stream
	// follows the lead so progress streams describe one coherent search),
	// otherwise the baseline leads and the guided slot is skipped.
	gaStrategy := func(k int, name string, lead bool) entry {
		cfgS := cfg
		cfgS.Seed = strategySeed(cfg.Seed, k)
		var strat ga.Strategy
		if lead {
			strat = sc.strategy(&cfgS)
		} else {
			cfgS.Tracer = nil
		}
		return entry{name: name, run: func(ctx context.Context) (ga.Result, error) {
			engine, err := ga.NewContext(req.Space, req.Objective, sharedEval, cfgS, strat)
			if err != nil {
				return ga.Result{}, err
			}
			return engine.RunContext(ctx)
		}}
	}
	if sc.guidance != nil {
		entries = append(entries, gaStrategy(0, StrategyGuided, true))
		entries = append(entries, gaStrategy(1, StrategyBaseline, false))
	} else {
		entries = append(entries, gaStrategy(0, StrategyBaseline, true))
	}

	// Annealing's budget mirrors the GA's worst-case evaluation count:
	// population x (generations + 1), from the effective (defaulted)
	// configuration.
	probe, err := ga.NewContext(req.Space, req.Objective, sharedEval, cfg, nil)
	if err != nil {
		return ga.Result{}, err
	}
	eff := probe.Config()
	annealCfg := search.AnnealConfig{
		Budget: eff.PopulationSize * (eff.Generations + 1),
		Seed:   strategySeed(cfg.Seed, 2),
	}
	entries = append(entries, entry{name: StrategyAnneal, run: func(ctx context.Context) (ga.Result, error) {
		return search.AnnealCtx(ctx, req.Space, req.Objective, sharedEval, annealCfg)
	}})

	results := make([]ga.Result, len(entries))
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = entries[i].run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return ga.Result{}, fmt.Errorf("core: portfolio strategy %s: %w", entries[i].name, err)
		}
	}

	// Deterministic merge: best feasible result under the objective wins;
	// Better is strict, so ties resolve to the lowest strategy index.
	winner := -1
	for i := range results {
		if results[i].BestPoint == nil {
			continue
		}
		if winner < 0 || req.Objective.Better(results[i].BestValue, results[winner].BestValue) {
			winner = i
		}
	}
	if winner < 0 {
		winner = 0
	}

	merged := results[winner]
	outcomes := make([]ga.StrategyOutcome, len(entries))
	for i := range entries {
		outcomes[i] = ga.StrategyOutcome{
			Strategy:      entries[i].name,
			BestValue:     results[i].BestValue,
			Feasible:      results[i].BestPoint != nil,
			DistinctEvals: results[i].DistinctEvals,
			Converged:     results[i].Converged,
			Winner:        i == winner,
		}
		if results[i].Interrupted {
			merged.Interrupted = true
		}
	}
	merged.Portfolio = outcomes
	// The race's true evaluator cost is the shared tier's accounting: each
	// strategy's DistinctEvals counts its private walk, while the shared
	// cache counts distinct raw-evaluator invocations across all of them.
	stats := shared.Stats()
	// Probe-collision counts depend on concurrent insertion order; zero
	// them so merged results stay byte-identical run to run.
	stats.Collisions = 0
	merged.DistinctEvals = stats.Distinct
	merged.Cache = stats
	return merged, nil
}
