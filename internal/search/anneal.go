package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// AnnealConfig tunes simulated annealing (the classic physical-design
// stochastic optimizer the paper's related-work section cites).
type AnnealConfig struct {
	// Budget is the distinct-evaluation budget.
	Budget int
	Seed   int64
}

// The annealing schedule. Each walk starts at half the fitness spread of
// a small random probe and cools geometrically per step; when it freezes
// the walk re-seeds, up to annealRestarts walks per run.
const (
	annealCooling  = 0.995
	annealRestarts = 3
)

// AnnealCtx runs simulated annealing over the space: a single-point walk
// that accepts worsening moves with probability exp(-delta/T) under a
// cooling schedule. The run context reaches every evaluation (so layered
// shared caches and supervised evaluators can honor deadlines), and
// cancellation stops the walk at the next step with Interrupted set on the
// partial result. A plain evaluator goes through dataset.AdaptContext.
func AnnealCtx(ctx context.Context, space *param.Space, obj metrics.Objective, eval dataset.ContextEvaluator, cfg AnnealConfig) (ga.Result, error) {
	if cfg.Budget < 2 {
		return ga.Result{}, fmt.Errorf("search: anneal budget %d < 2", cfg.Budget)
	}
	cache := dataset.NewCacheContext(space, eval)
	r := rand.New(rand.NewSource(cfg.Seed))

	fitness := func(pt param.Point) float64 {
		m, err := cache.EvaluateCtx(ctx, pt)
		if err != nil {
			return math.Inf(-1)
		}
		return obj.Fitness(m)
	}
	neighbor := func(pt param.Point) param.Point {
		nb := pt.Clone()
		g := r.Intn(space.Len())
		card := space.Param(g).Card()
		if card <= 1 {
			return nb
		}
		if space.Param(g).IsOrdered() && r.Float64() < 0.7 {
			// Local step along the axis.
			step := 1 + r.Intn(2)
			if r.Intn(2) == 0 {
				step = -step
			}
			v := nb[g] + step
			if v < 0 {
				v = 0
			}
			if v > card-1 {
				v = card - 1
			}
			if v == nb[g] {
				v = (nb[g] + 1) % card
			}
			nb[g] = v
			return nb
		}
		v := r.Intn(card - 1)
		if v >= nb[g] {
			v++
		}
		nb[g] = v
		return nb
	}

	best := math.Inf(-1)
	var bestPt param.Point
	bestVal := obj.Worst()
	var trajectory []ga.GenPoint
	record := func(step int) {
		trajectory = append(trajectory, ga.GenPoint{
			Generation:    step,
			DistinctEvals: cache.DistinctEvaluations(),
			BestValue:     bestVal,
		})
	}
	note := func(pt param.Point, fit float64) {
		if fit > best {
			best = fit
			bestPt = pt.Clone()
			if m, err := cache.EvaluateCtx(ctx, pt); err == nil {
				if v, ok := obj.Value(m); ok {
					bestVal = v
				}
			}
		}
	}

	step := 0
	interrupted := false
	for restart := 0; restart < annealRestarts && cache.DistinctEvaluations() < cfg.Budget; restart++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		cur := space.Random(r)
		curFit := fitness(cur)
		note(cur, curFit)

		// Probe a handful of random points to scale the temperature to the
		// fitness landscape.
		probeBest, probeWorst := curFit, curFit
		for i := 0; i < 5 && cache.DistinctEvaluations() < cfg.Budget; i++ {
			f := fitness(space.Random(r))
			if f > probeBest && !math.IsInf(f, 0) {
				probeBest = f
			}
			if f < probeWorst && !math.IsInf(f, 0) {
				probeWorst = f
			}
		}
		span := probeBest - probeWorst
		if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
			span = 1
		}
		temp := span / 2
		minTemp := temp * 1e-4

		for temp > minTemp && cache.DistinctEvaluations() < cfg.Budget {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			step++
			nb := neighbor(cur)
			nbFit := fitness(nb)
			note(nb, nbFit)
			delta := nbFit - curFit
			if delta >= 0 || (!math.IsInf(nbFit, -1) && r.Float64() < math.Exp(delta/temp)) {
				cur, curFit = nb, nbFit
			}
			temp *= annealCooling
			if step%25 == 0 {
				record(step)
			}
		}
	}
	record(step)
	return ga.Result{
		BestPoint:     bestPt,
		BestValue:     bestVal,
		Trajectory:    trajectory,
		DistinctEvals: cache.DistinctEvaluations(),
		Interrupted:   interrupted,
		Cache:         cache.Stats(),
	}, nil
}
