package trace

import "time"

// GenerationRecord summarizes one completed generation of a GA run.
type GenerationRecord struct {
	// Generation is the 0-based generation index.
	Generation int
	// BestValue is the best objective value found so far (Objective.Worst
	// if nothing feasible yet).
	BestValue float64
	// BestFitness is the best raw fitness found so far (-Inf if nothing
	// feasible yet).
	BestFitness float64
	// MeanFitness averages fitness over the generation's feasible
	// individuals (NaN when none are feasible).
	MeanFitness float64
	// Feasible counts feasible individuals in this generation.
	Feasible int
	// UniqueGenomes counts distinct genomes in the population - the
	// diversity signal that collapses as the GA converges.
	UniqueGenomes int
	// DistinctEvals is the cumulative number of distinct design points
	// evaluated - the paper's search-cost metric.
	DistinctEvals int
	// FrontSize and Hypervolume describe the non-dominated archive in
	// multi-objective (pareto) runs: its cardinality after this generation
	// and, for two-objective runs, the dominated area relative to the
	// nadir-derived reference. Zero in scalar runs.
	FrontSize   int
	Hypervolume float64
	// Elapsed is the wall-clock time this generation took (evaluation
	// through bookkeeping). Wall time never feeds back into the search.
	Elapsed time.Duration
}

// EvaluationRecord reports one individual's fitness evaluation.
type EvaluationRecord struct {
	// Generation is the generation the individual belongs to.
	Generation int
	// Feasible reports whether the design point was feasible under the
	// objective.
	Feasible bool
	// Fitness is the raw fitness assigned (-Inf when infeasible).
	Fitness float64
}

// Hint mechanisms - which rule produced a guided-mutation decision. These
// are the measurable counterparts of the paper's Table 1 hint vocabulary.
const (
	// HintGeneImportance: the mutated gene was drawn from the
	// importance-weighted distribution (importance hint in effect).
	HintGeneImportance = "gene_importance"
	// HintGeneUniform: the mutated gene was drawn with no effective
	// importance skew (no hint set, fully decayed, or confidence 0).
	HintGeneUniform = "gene_uniform"
	// HintValueTarget: the new value was sampled around a target hint.
	HintValueTarget = "value_target"
	// HintValueBias: the new value moved along an oriented bias hint.
	HintValueBias = "value_bias"
	// HintValueUniform: the new value fell back to the baseline uniform
	// draw (gate closed, no hint, or bias deferred).
	HintValueUniform = "value_uniform"
)

// HintRecord reports one guided-mutation decision: either a gene pick
// (which gene mutates) or a value move (what the gene becomes).
type HintRecord struct {
	// Generation is the breeding generation.
	Generation int
	// Gene is the parameter index the decision concerns.
	Gene int
	// Mechanism is one of the Hint* constants above.
	Mechanism string
	// Guided reports the confidence-gate outcome for value moves: true
	// when the per-mutation confidence coin landed guided (even if the
	// mechanism then deferred to uniform). Always false for gene picks,
	// whose blending is continuous rather than gated.
	Guided bool
}

// Cache lookup outcomes.
const (
	// CacheHit: the design point was already characterized.
	CacheHit = "hit"
	// CacheMiss: this lookup owns the evaluation (a spent synthesis job).
	CacheMiss = "miss"
	// CacheDedup: another goroutine is evaluating the same point; this
	// lookup blocked on its result (singleflight wait).
	CacheDedup = "dedup"
	// CacheTransient: the owned evaluation ended in a transient error; the
	// entry was withdrawn so the point stays re-evaluable (never memoized).
	CacheTransient = "transient"
	// CacheCollision: a hash-keyed lookup probed past an entry whose
	// 64-bit hash matched but whose packed genome did not. Collisions are
	// correctness-neutral (identity is (hash, genome)) but each one costs
	// an extra probe, so a rising rate flags a degenerate hash seed.
	CacheCollision = "collision"
)

// CacheRecord reports one evaluation-cache event.
type CacheRecord struct {
	// Event is one of CacheHit, CacheMiss, CacheDedup, CacheTransient,
	// CacheCollision. Every lookup reports exactly one of the first three;
	// transient withdrawals and collisions are reported on top.
	Event string
	// Shard is the lock stripe the key hashed to.
	Shard int
}

// Worker-pool events.
const (
	// PoolTask: a worker ran one task.
	PoolTask = "task"
	// PoolWorkerBusy: a worker started claiming tasks.
	PoolWorkerBusy = "busy"
	// PoolWorkerIdle: a worker ran out of tasks and exited.
	PoolWorkerIdle = "idle"
)

// PoolRecord reports one worker-pool scheduling event.
type PoolRecord struct {
	// Event is one of PoolTask, PoolWorkerBusy, PoolWorkerIdle.
	Event string
	// Worker is the worker's index within its pool.
	Worker int
}
