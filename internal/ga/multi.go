// Multi-objective (pareto) mode: NSGA-II selection inside the existing
// engine. The whole mechanism reduces to a fitness transform - after each
// generation is evaluated, every individual's scalar fitness is replaced
// by a synthesized value that encodes (non-domination rank, crowding
// distance) such that rank strictly dominates crowding and ranks never
// overlap. Everything downstream - tournament and rank-roulette selection,
// elitism, convergence accounting, checkpoint state, and the migration
// contract's stable fitness sort (so emigrating islands ship front
// members) - works unchanged, draws the same RNG sequence, and therefore
// stays byte-identical across parallelism levels.
package ga

import (
	"fmt"
	"math"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pareto"
)

// NewMultiContext builds an Engine that optimizes two or more objectives
// simultaneously with NSGA-II-style non-dominated sorting and
// crowding-distance selection. objs[0] is the primary objective: scalar
// reporting surfaces (Result.BestValue/BestPoint, trajectory BestValue,
// convergence detection) describe the primary-best front member, while
// Result.Front carries the full non-dominated archive over every feasible
// design the run evaluated.
func NewMultiContext(space *param.Space, objs []metrics.Objective, eval dataset.ContextEvaluator, cfg Config, strategy Strategy) (*Engine, error) {
	if len(objs) < 2 {
		return nil, fmt.Errorf("ga: multi-objective run needs at least two objectives, got %d", len(objs))
	}
	e, err := NewContext(space, objs[0], eval, cfg, strategy)
	if err != nil {
		return nil, err
	}
	e.objs = objs
	return e, nil
}

// Objectives returns the engine's objective vector: len >= 2 in
// multi-objective mode, nil in scalar mode.
func (e *Engine) Objectives() []metrics.Objective { return e.objs }

// scoreMulti is score's multi-objective arm: it extracts the full
// objective-value vector into the individual's slot scratch, marks
// feasibility (all objectives present), and leaves the primary objective's
// signed fitness as a provisional score for per-evaluation telemetry.
func (e *Engine) scoreMulti(ind *individual, m metrics.Metrics, err error) {
	if cap(ind.vals) < len(e.objs) {
		ind.vals = make([]float64, len(e.objs))
	}
	ind.vals = ind.vals[:len(e.objs)]
	ind.ok = err == nil
	if ind.ok {
		for i, o := range e.objs {
			v, present := o.Value(m)
			if !present {
				ind.ok = false
				break
			}
			ind.vals[i] = v
		}
	}
	if ind.ok {
		ind.value = ind.vals[0]
		ind.fitness = e.primaryFitness(ind)
	} else {
		ind.fitness = math.Inf(-1)
		ind.value = e.obj.Worst()
	}
}

// primaryFitness is the individual's signed primary-objective value:
// higher is better, -Inf when infeasible. It is the cross-generation
// comparison key in multi-objective runs, where NSGA-II rank fitness only
// orders individuals within a single generation.
func (e *Engine) primaryFitness(ind *individual) float64 {
	if !ind.ok {
		return math.Inf(-1)
	}
	if e.obj.Direction() == metrics.Minimize {
		return -ind.value
	}
	return ind.value
}

// assignParetoFitness replaces the population's provisional scores with
// NSGA-II selection fitness: -rank + b(crowd), where b maps crowding into
// [0, 0.5] for finite distances and 0.75 for boundary (infinite) ones.
// Rank r fitness therefore lives in [-r, -r+0.75], so no two ranks
// overlap: any rank-r individual beats every rank-(r+1) one, and within a
// rank less-crowded individuals win - the crowded-comparison operator,
// expressed as a plain float the existing selectors already order by.
// Infeasible individuals keep -Inf.
func (e *Engine) assignParetoFitness(pop []individual) {
	n := len(pop)
	if cap(e.mvVals) < n {
		e.mvVals = make([][]float64, n)
		e.mvOK = make([]bool, n)
		e.mvRanks = make([]int, n)
		e.mvCrowd = make([]float64, n)
	}
	vals, ok := e.mvVals[:n], e.mvOK[:n]
	ranks, crowd := e.mvRanks[:n], e.mvCrowd[:n]
	for i := range pop {
		vals[i] = pop[i].vals
		ok[i] = pop[i].ok
	}
	pareto.RankCrowd(e.objs, vals, ok, ranks, crowd)
	for i := range pop {
		if !pop[i].ok {
			continue
		}
		bonus := 0.75
		if !math.IsInf(crowd[i], 1) {
			bonus = 0.5 * crowd[i] / (1 + crowd[i])
		}
		pop[i].fitness = -float64(ranks[i]) + bonus
	}
}

// multiState is the per-run multi-objective bookkeeping: the incremental
// non-dominated archive and the running nadir (per-objective worst
// feasible value), which anchors the hypervolume reference point.
type multiState struct {
	objs     []metrics.Objective
	archive  *pareto.Archive
	nadir    []float64
	nadirSet bool
}

// newMultiState returns the run state for a multi-objective engine, nil
// for a scalar one.
func (e *Engine) newMultiState() *multiState {
	if e.objs == nil {
		return nil
	}
	return &multiState{
		objs:    e.objs,
		archive: pareto.NewArchive(e.objs),
		nadir:   make([]float64, len(e.objs)),
	}
}

// observe folds one feasible evaluated individual into the archive and
// nadir.
func (mv *multiState) observe(genome param.Point, vals []float64) {
	mv.archive.Add(genome, vals)
	if !mv.nadirSet {
		copy(mv.nadir, vals)
		mv.nadirSet = true
		return
	}
	for i, o := range mv.objs {
		if o.Better(mv.nadir[i], vals[i]) {
			mv.nadir[i] = vals[i]
		}
	}
}

// stats returns the archive size and, for exactly two objectives, the
// hypervolume relative to the nadir-derived reference.
func (mv *multiState) stats() (int, float64) {
	size := mv.archive.Size()
	if size == 0 || len(mv.objs) != 2 {
		return size, 0
	}
	objs2 := [2]metrics.Objective{mv.objs[0], mv.objs[1]}
	ref := pareto.RefFromNadir(objs2, [2]float64{mv.nadir[0], mv.nadir[1]})
	hv, err := pareto.Hypervolume2D(objs2, mv.archive.Members(), ref)
	if err != nil {
		// Unreachable: the reference sits strictly beyond the nadir, which
		// bounds every archive member by construction.
		return size, 0
	}
	return size, hv
}

// front returns the archive in canonical order.
func (mv *multiState) front() []pareto.FrontPoint { return mv.archive.Members() }

// nadirValues returns a copy of the running nadir, nil until any feasible
// point has been observed.
func (mv *multiState) nadirValues() []float64 {
	if !mv.nadirSet {
		return nil
	}
	return append([]float64(nil), mv.nadir...)
}

// rebuild reconstructs the archive and nadir from a restored cache
// snapshot. Entries are iterated in the snapshot's canonical (key-sorted)
// order; the archive's contents are insertion-order independent, so the
// rebuilt state matches the uninterrupted run's at the same boundary.
func (mv *multiState) rebuild(space *param.Space, snap dataset.CacheSnapshot) error {
	vals := make([]float64, len(mv.objs))
	for _, es := range snap.Entries {
		if es.Err != "" {
			continue
		}
		feasible := true
		for i, o := range mv.objs {
			v, present := o.Value(es.Metrics)
			if !present {
				feasible = false
				break
			}
			vals[i] = v
		}
		if !feasible {
			continue
		}
		pt, err := space.ParseKey(es.Key)
		if err != nil {
			return fmt.Errorf("ga: rebuild archive: %w", err)
		}
		mv.observe(pt, vals)
	}
	return nil
}
