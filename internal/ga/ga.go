// Package ga implements the baseline genetic algorithm used for IP
// parameter optimization - the role PyEvolve plays in the Nautilus paper.
//
// A genome is a param.Point (one value index per IP parameter). Each
// generation, the engine evaluates the population's fitness through a
// caching evaluator (so search cost is counted in *distinct* design points,
// the paper's metric), then forms the next generation from elites plus
// children bred by selection (rank-roulette by default, tournament as an
// option), crossover (single-point by default), and per-gene mutation.
//
// The mutation operator is split into two pluggable decisions - which genes
// mutate, and what value a mutated gene receives. The baseline implements
// both uniformly at random; package core (Nautilus) supplies hint-guided
// implementations of the same interface, exactly mirroring how the paper
// layers author guidance onto an unmodified GA skeleton.
package ga

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pareto"
	"nautilus/internal/pool"
	"nautilus/internal/telemetry/trace"
)

// Selection schemes. The default, rank-based roulette, matches the
// PyEvolve-style engine the paper built on; tournament selection is offered
// as a stronger-pressure alternative for ablations.
const (
	SelectRankRoulette = "rank_roulette"
	SelectTournament   = "tournament"
)

// Crossover operators. Single-point is the PyEvolve-style default; uniform
// and two-point are offered for ablations.
const (
	CrossoverSinglePoint = "single_point"
	CrossoverTwoPoint    = "two_point"
	CrossoverUniform     = "uniform"
)

// Config holds the GA's run settings. The zero value is completed by
// defaults matching the paper's setup: population 10, per-gene mutation
// rate 0.1, 80 generations, rank-roulette selection with single-point
// crossover (the PyEvolve-style engine both the paper's baseline and
// Nautilus are built on).
type Config struct {
	// PopulationSize is the number of genomes per generation (default 10).
	PopulationSize int
	// Generations is how many generations to run (default 80).
	Generations int
	// MutationRate is the per-gene mutation probability (default 0.1).
	MutationRate float64
	// CrossoverRate is the probability a child is bred from two parents
	// rather than cloned from one (default 0.9).
	CrossoverRate float64
	// Selection picks the parent-selection scheme (default
	// SelectRankRoulette).
	Selection string
	// Crossover picks the crossover operator (default CrossoverSinglePoint).
	Crossover string
	// TournamentSize is the selection tournament size, used only with
	// SelectTournament (default 2).
	TournamentSize int
	// Elitism is how many best genomes survive unchanged (default 1).
	Elitism int
	// Seed seeds the run's random stream; runs are fully deterministic in
	// (Seed, Config, Strategy, evaluator).
	Seed int64
	// Parallelism is the number of concurrent fitness evaluations
	// (default 1). The paper notes population size caps this parallelism.
	Parallelism int
	// ConvergenceWindow, when positive, stops the run early once the best
	// value has not improved AND the population has stayed fully
	// homogeneous for this many consecutive generations - the point at
	// which further generations only revisit cached designs. 0 disables
	// early stopping (the paper's fixed-generation methodology).
	ConvergenceWindow int
	// Tracer is the run's observability stream. It receives latency spans
	// (a ga.generation root per generation with a ga.dispatch child around
	// evaluation, pre-measured ga.selection / ga.crossover / ga.mutation
	// breeding phases, and the cache's batch-resolve phases underneath)
	// and the run-event records (per-generation stats, per-individual
	// evaluations, cache lookups, pool scheduling, and - through a guided
	// strategy - hint decisions). nil disables it at the cost of one nil
	// check per event. The stream is purely observational - span IDs come
	// from the tracer's own seeded stream and nothing draws from the run
	// RNG - so results are byte-identical with it on or off. Its sinks
	// must be safe for concurrent use when Parallelism > 1.
	Tracer *trace.Tracer
	// Checkpoint, when non-nil, receives a full resumable Snapshot of the
	// run at generation boundaries: every CheckpointEvery generations, and
	// once more when the run context is canceled (after the evaluation pool
	// has drained). A Checkpoint error aborts the run. Checkpointing never
	// draws from the run RNG, so results are byte-identical with it on or
	// off.
	Checkpoint func(*Snapshot) error
	// CheckpointEvery is the generation cadence for Checkpoint calls
	// (default 1 = every generation boundary). Ignored when Checkpoint is
	// nil.
	CheckpointEvery int
	// Resume, when non-nil, starts the run from a Snapshot previously
	// produced by Checkpoint instead of generation 0. The snapshot's seed
	// and population size must match the configuration; the resumed run's
	// Result is byte-identical to an uninterrupted run's.
	Resume *Snapshot
	// BatchBackend, when non-nil, receives the cache's residual misses as
	// whole batches instead of the cache fanning them out over the
	// single-point evaluator - the hook a layered cache (e.g. the server's
	// process-wide shared cache) uses to coalesce in-flight batches across
	// sessions. Setting it routes every generation through the batch path,
	// even at Parallelism 1.
	BatchBackend dataset.BatchEvaluator
	// Migration, when non-nil, makes the run one island of an island-model
	// search: every Migration.Interval generations the island's best
	// genomes are shipped through Migration.Exchange and the returned
	// immigrants overwrite the last non-elite slots of the freshly bred
	// generation. Migration never draws from the run RNG (see the
	// Migration type's determinism contract), so a run with an exchange
	// that returns nothing is byte-identical to one with Migration nil.
	Migration *Migration
}

// MaxPopulation bounds Config.PopulationSize. A generation's genomes live
// in flat arenas of PopulationSize x genome-length ints, so an absurd
// population would fail the allocation (or exhaust memory) mid-run; the
// bound sits orders of magnitude above any real search (the paper uses
// 10) and turns such a configuration into a validation error instead.
const MaxPopulation = 1 << 16

// withDefaults returns cfg with zero fields replaced by paper defaults.
func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 10
	}
	if c.Generations == 0 {
		c.Generations = 80
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.1
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.9
	}
	if c.Selection == "" {
		c.Selection = SelectRankRoulette
	}
	if c.Crossover == "" {
		c.Crossover = CrossoverSinglePoint
	}
	if c.TournamentSize == 0 {
		c.TournamentSize = 2
	}
	if c.Elitism == 0 {
		c.Elitism = 1
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.Migration != nil {
		c.Migration = c.Migration.withDefaults()
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.PopulationSize < 2 || c.PopulationSize > MaxPopulation {
		return fmt.Errorf("ga: population size %d outside [2, %d]", c.PopulationSize, MaxPopulation)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: generations %d < 1", c.Generations)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("ga: mutation rate %v outside [0,1]", c.MutationRate)
	}
	if c.CrossoverRate < 0 || c.CrossoverRate > 1 {
		return fmt.Errorf("ga: crossover rate %v outside [0,1]", c.CrossoverRate)
	}
	if c.TournamentSize < 1 || c.TournamentSize > c.PopulationSize {
		return fmt.Errorf("ga: tournament size %d outside [1, population]", c.TournamentSize)
	}
	switch c.Selection {
	case SelectRankRoulette, SelectTournament:
	default:
		return fmt.Errorf("ga: unknown selection scheme %q", c.Selection)
	}
	switch c.Crossover {
	case CrossoverSinglePoint, CrossoverTwoPoint, CrossoverUniform:
	default:
		return fmt.Errorf("ga: unknown crossover operator %q", c.Crossover)
	}
	if c.Elitism < 0 || c.Elitism >= c.PopulationSize {
		return fmt.Errorf("ga: elitism %d outside [0, population)", c.Elitism)
	}
	if c.Parallelism < 1 {
		return fmt.Errorf("ga: parallelism %d < 1", c.Parallelism)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("ga: checkpoint interval %d < 0", c.CheckpointEvery)
	}
	if m := c.Migration; m != nil {
		if m.Exchange == nil {
			return fmt.Errorf("ga: migration without an exchange")
		}
		if m.Interval < 1 {
			return fmt.Errorf("ga: migration interval %d < 1", m.Interval)
		}
		if m.Count < 1 || m.Count > c.PopulationSize-c.Elitism {
			return fmt.Errorf("ga: migration count %d outside [1, population-elitism]", m.Count)
		}
	}
	return nil
}

// Strategy decides which genes mutate and what values they receive - the
// two operator decisions Nautilus hints act on. Implementations may be
// stateful per run but must be deterministic given the rand stream.
type Strategy interface {
	// MutationGenes returns the gene indices to mutate for one genome this
	// generation. rate is the configured per-gene mutation rate.
	MutationGenes(r *rand.Rand, gen int, genome param.Point, rate float64) []int
	// MutateValue returns the new value index for gene g of the genome
	// (current is the present index).
	MutateValue(r *rand.Rand, gen int, g, current int) int
}

// Baseline is the unguided Strategy: every gene is equally likely to
// mutate, and a mutated gene takes a uniformly random different value.
type Baseline struct {
	Space *param.Space
}

// MutationGenes flips an independent coin per gene at the configured rate.
func (b Baseline) MutationGenes(r *rand.Rand, gen int, genome param.Point, rate float64) []int {
	var genes []int
	for g := range genome {
		if r.Float64() < rate {
			genes = append(genes, g)
		}
	}
	return genes
}

// MutateValue draws a uniform different value for the gene.
func (b Baseline) MutateValue(r *rand.Rand, gen int, g, current int) int {
	card := b.Space.Param(g).Card()
	if card <= 1 {
		return current
	}
	v := r.Intn(card - 1)
	if v >= current {
		v++
	}
	return v
}

// GenPoint is one sample of a search trajectory: the cumulative number of
// distinct designs evaluated after a generation, the best objective value
// found so far, and the population's genomic diversity.
type GenPoint struct {
	Generation    int
	DistinctEvals int
	BestValue     float64 // objective value; Worst() if nothing feasible yet
	// UniqueGenomes counts distinct genomes in the population this
	// generation - the diversity signal that collapses as the GA
	// converges and starts revisiting cached designs.
	UniqueGenomes int
	// FrontSize and Hypervolume track the non-dominated archive in
	// multi-objective (pareto) runs: the archive's cardinality after this
	// generation and, for exactly two objectives, the dominated area
	// relative to a nadir-derived reference. Zero in scalar runs.
	FrontSize   int     `json:",omitempty"`
	Hypervolume float64 `json:",omitempty"`
}

// Result summarizes one GA run.
type Result struct {
	// BestPoint is the best design found (nil if nothing feasible).
	BestPoint param.Point
	// BestValue is its objective value.
	BestValue float64
	// Trajectory has one entry per generation (including generation 0, the
	// initial population).
	Trajectory []GenPoint
	// DistinctEvals is the total number of distinct designs evaluated -
	// the paper's cost metric.
	DistinctEvals int
	// Converged reports whether the run stopped early via
	// Config.ConvergenceWindow.
	Converged bool
	// Interrupted reports that the run context was canceled before the
	// search finished: the evaluation pool drained, a final checkpoint was
	// written (when configured), and the fields above describe the search
	// up to the last completed generation.
	Interrupted bool
	// Cache is the run's evaluation-cache accounting (distinct, total,
	// hits, hit rate). Deterministic in (Seed, Config, Strategy,
	// evaluator) like every other Result field.
	Cache dataset.CacheStats
	// Front is the final non-dominated archive over every feasible design
	// the run evaluated, in canonical order (multi-objective runs only;
	// see NewMultiContext). BestPoint/BestValue then describe the front
	// member that is best on the primary objective.
	Front []pareto.FrontPoint `json:",omitempty"`
	// Hypervolume is Front's dominated area relative to a reference
	// derived from Nadir (exactly two objectives; 0 otherwise).
	Hypervolume float64 `json:",omitempty"`
	// Nadir holds the per-objective worst feasible values observed across
	// the whole run - the anchor for Hypervolume's reference point.
	Nadir []float64 `json:",omitempty"`
	// Portfolio lists per-strategy outcomes when this result was produced
	// by a portfolio race (core.ModePortfolio); nil otherwise.
	Portfolio []StrategyOutcome `json:",omitempty"`
}

// StrategyOutcome reports one strategy's contribution to a portfolio race:
// its private best, its private evaluation accounting, and whether the
// deterministic merge picked it as the winner.
type StrategyOutcome struct {
	Strategy      string  `json:"strategy"`
	BestValue     float64 `json:"best_value"`
	Feasible      bool    `json:"feasible"`
	DistinctEvals int     `json:"distinct_evals"`
	Converged     bool    `json:"converged"`
	Winner        bool    `json:"winner"`
}

// EvalsToReach returns the number of distinct evaluations after which the
// trajectory first reaches a value at least as good as target under obj,
// or -1 if it never does.
func (res Result) EvalsToReach(obj metrics.Objective, target float64) int {
	for _, gp := range res.Trajectory {
		if gp.BestValue == obj.Worst() {
			continue
		}
		if !obj.Better(target, gp.BestValue) { // BestValue >= target
			return gp.DistinctEvals
		}
	}
	return -1
}

// Engine runs genetic searches over a design space.
type Engine struct {
	space    *param.Space
	obj      metrics.Objective
	cache    *dataset.Cache
	cfg      Config
	strategy Strategy
	tracer   *trace.Tracer
	// tracing caches tracer.Enabled() so breeding-phase clock reads and
	// per-generation record building cost one boolean test when the
	// stream is off.
	tracing bool
	// phaseSel/phaseCx/phaseMut accumulate breeding-phase wall time across
	// one generation's breedInto calls, emitted as pre-measured spans at
	// the generation boundary. Touched only when tracing.
	phaseSel, phaseCx, phaseMut time.Duration
	// seen is the scratch map for per-generation genome-diversity counting
	// (by genome hash), reused across generations to keep the hot loop
	// allocation-free.
	seen map[uint64]struct{}
	// batchHashes/batchPts are the batch path's reusable request buffers,
	// sized once per run to keep batching allocation-free too.
	batchHashes []uint64
	batchPts    []param.Point
	// order is the elite-selection scratch permutation, reused across
	// generations.
	order []int
	// objs is the full objective vector in multi-objective (pareto) runs;
	// nil in scalar runs. objs[0] is the primary objective and aliases
	// e.obj, so every scalar reporting path speaks the primary objective.
	objs []metrics.Objective
	// mvVals/mvOK/mvRanks/mvCrowd are the NSGA-II scratch buffers for
	// per-generation rank/crowding assignment, reused across generations.
	mvVals  [][]float64
	mvOK    []bool
	mvRanks []int
	mvCrowd []float64
}

// New builds an Engine. eval is the raw (uncached) evaluator; the engine
// wraps it in a distinct-evaluation-counting cache per run. strategy nil
// selects the unguided Baseline.
func New(space *param.Space, obj metrics.Objective, eval dataset.Evaluator, cfg Config, strategy Strategy) (*Engine, error) {
	if eval == nil {
		return nil, fmt.Errorf("ga: nil space or evaluator")
	}
	return NewContext(space, obj, dataset.AdaptContext(eval), cfg, strategy)
}

// NewContext is New for a context-aware evaluator: the run context reaches
// each evaluation through the cache's singleflight path, so supervised
// evaluators (internal/resilience) can honor per-evaluation deadlines and
// run-level cancellation.
func NewContext(space *param.Space, obj metrics.Objective, eval dataset.ContextEvaluator, cfg Config, strategy Strategy) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if space == nil || eval == nil {
		return nil, fmt.Errorf("ga: nil space or evaluator")
	}
	if strategy == nil {
		strategy = Baseline{Space: space}
	}
	cache := dataset.NewCacheContext(space, eval)
	cache.SetTracer(cfg.Tracer)
	if cfg.BatchBackend != nil {
		cache.SetBatchBackend(cfg.BatchBackend)
	}
	return &Engine{
		space:    space,
		obj:      obj,
		cache:    cache,
		cfg:      cfg,
		strategy: strategy,
		tracer:   cfg.Tracer,
		tracing:  cfg.Tracer.Enabled(),
	}, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

type individual struct {
	// genome is a subslice of the run's flat genome arena (never an owned
	// allocation); anything retaining it beyond the generation - the best-
	// so-far individual, checkpoints - must clone it out.
	genome param.Point
	// hash is the genome's 64-bit identity (param.Space.Hash64), computed
	// eagerly whenever the genome is (re)written. It is the genome's cache
	// identity and drives the diversity count.
	hash    uint64
	fitness float64
	value   float64
	ok      bool
	// vals holds the individual's objective-value vector in multi-objective
	// runs (a per-slot scratch buffer reused across generations); nil in
	// scalar runs.
	vals []float64
}

// genomeArenas pools the flat []int backing arrays population genomes live
// in, so repeated runs (and the two per-run generation buffers) reuse the
// same storage instead of allocating one slice per individual per
// generation.
var genomeArenas sync.Pool

// getArena returns a flat arena of at least n ints.
func getArena(n int) []int {
	if v, ok := genomeArenas.Get().(*[]int); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]int, n)
}

// putArena recycles an arena. The caller must not retain any subslice.
func putArena(a []int) {
	genomeArenas.Put(&a)
}

// bindArena points each individual's genome at its stride-L window of the
// arena. Genome contents are whatever the arena last held; every slot is
// overwritten before use.
func bindArena(pop []individual, arena []int, l int) {
	for i := range pop {
		pop[i].genome = param.Point(arena[i*l : (i+1)*l : (i+1)*l])
	}
}

// Run executes one full GA search and returns its result. The engine's
// evaluation cache is reset per run; the paper's experiments use fresh
// caches per run.
func (e *Engine) Run() Result {
	res, err := e.RunContext(context.Background())
	if err != nil {
		// Without Checkpoint or Resume configured, RunContext cannot fail;
		// misconfigured resume state is a programming error here.
		panic(err)
	}
	return res
}

// RunContext is Run under a context. Cancellation stops the search at the
// nearest generation boundary: in-flight evaluations drain, a final
// checkpoint is written when Config.Checkpoint is set, and the partial
// result comes back with Interrupted set. The only error sources are a
// failing Checkpoint call and an invalid Resume snapshot.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	src := newCountingSource(e.cfg.Seed)
	r := rand.New(src)

	// mv carries the multi-objective run state (non-dominated archive +
	// running nadir); nil in scalar runs, so the scalar hot path is
	// untouched.
	mv := e.newMultiState()
	best := individual{fitness: math.Inf(-1), value: e.obj.Worst()}
	var pop []individual
	var trajectory []GenPoint
	converged := false
	interrupted := false
	stale := 0
	prevBest := math.Inf(-1)
	startGen := 0

	// Population genomes live in two flat arenas ping-ponged between
	// generations (parents in one, children bred into the other), pooled
	// across runs: after warm-up a generation allocates no per-individual
	// slices at all.
	l := e.space.Len()
	n := e.cfg.PopulationSize
	arenas := [2][]int{getArena(n * l), getArena(n * l)}
	popBufs := [2][]individual{make([]individual, n), make([]individual, n)}
	bindArena(popBufs[0], arenas[0], l)
	bindArena(popBufs[1], arenas[1], l)
	cur := 0
	pop = popBufs[0]
	defer func() {
		putArena(arenas[0])
		putArena(arenas[1])
	}()

	if snap := e.cfg.Resume; snap != nil {
		if err := e.validateResume(snap); err != nil {
			return Result{}, err
		}
		if err := e.cache.Restore(snap.Cache); err != nil {
			return Result{}, err
		}
		src.fastForward(snap.Draws)
		for i, g := range snap.Population {
			copy(pop[i].genome, g)
			pop[i].hash = e.space.Hash64(pop[i].genome)
		}
		if snap.Best != nil {
			best = individual{
				genome:  snap.Best.Clone(),
				fitness: snap.BestFitness,
				value:   snap.BestValue,
				ok:      true,
			}
		}
		trajectory = append(trajectory, snap.Trajectory...)
		stale = snap.Stale
		prevBest = snap.PrevBest
		startGen = snap.Generation
		if mv != nil {
			// The archive is a pure function of the set of evaluated points,
			// so it is rebuilt from the restored cache rather than persisted:
			// resumed runs rejoin the uninterrupted run's archive exactly.
			if err := mv.rebuild(e.space, snap.Cache); err != nil {
				return Result{}, err
			}
		}
	} else {
		e.cache.Reset()
		for i := range pop {
			e.space.RandomInto(r, pop[i].genome)
			pop[i].hash = e.space.Hash64(pop[i].genome)
		}
	}

	// The stream is observational only: wall-clock timing and the
	// per-generation record are built solely when a live tracer asks for
	// them, and nothing here touches r, so runs are byte-identical with
	// the stream on or off.
	checkpointing := e.cfg.Checkpoint != nil

	// boundary is the resumable state at the start of the generation being
	// evaluated; on cancellation it becomes the final checkpoint, so a kill
	// mid-generation loses no completed work.
	var boundary *Snapshot

	for gen := startGen; gen <= e.cfg.Generations; gen++ {
		if checkpointing {
			boundary = e.snapshot(gen, src.draws, pop, best, stale, prevBest, trajectory)
			if gen != startGen && gen%e.cfg.CheckpointEvery == 0 {
				if err := e.cfg.Checkpoint(boundary); err != nil {
					return Result{}, fmt.Errorf("ga: checkpoint at generation %d: %w", gen, err)
				}
			}
		}
		var genStart time.Time
		var gspan, dspan trace.Active
		if e.tracing {
			genStart = time.Now()
			gspan = e.tracer.Start("ga.generation")
			dspan = gspan.Child("ga.dispatch")
		}
		if err := e.evaluate(ctx, gen, pop); err != nil {
			// Canceled mid-generation: the pool has drained; discard the
			// partially evaluated generation and checkpoint its boundary.
			dspan.End()
			gspan.End()
			interrupted = true
			if checkpointing {
				if cerr := e.cfg.Checkpoint(boundary); cerr != nil {
					return Result{}, fmt.Errorf("ga: final checkpoint at generation %d: %w", gen, cerr)
				}
			}
			break
		}
		dspan.End()
		// In multi-objective runs, replace the provisional per-individual
		// scores with NSGA-II selection fitness (non-domination rank plus
		// bounded crowding) now that the whole generation is evaluated.
		if mv != nil {
			e.assignParetoFitness(pop)
		}
		// One pass over the evaluated generation gathers everything the
		// loop tail needs: the best individual, the diversity count (genome
		// hashes into the reused scratch set), and the feasible-fitness
		// aggregate telemetry reports.
		if e.seen == nil {
			e.seen = make(map[uint64]struct{}, len(pop))
		} else {
			clear(e.seen)
		}
		bestIdx, bestFit := -1, best.fitness
		var sum float64
		feasible := 0
		for i := range pop {
			ind := &pop[i]
			// Best-so-far comparisons speak the primary objective in both
			// modes: NSGA-II rank fitness only orders within one generation.
			f := ind.fitness
			if mv != nil {
				f = e.primaryFitness(ind)
			}
			if f > bestFit {
				bestIdx, bestFit = i, f
			}
			e.seen[ind.hash] = struct{}{}
			if ind.ok {
				sum += ind.fitness
				feasible++
				if mv != nil {
					mv.observe(ind.genome, ind.vals)
				}
			}
		}
		if bestIdx >= 0 {
			best = pop[bestIdx]
			best.genome = pop[bestIdx].genome.Clone()
			best.vals = nil // slot scratch; never read through best
			if mv != nil {
				best.fitness = bestFit
			}
		}
		unique := len(e.seen)
		gp := GenPoint{
			Generation:    gen,
			DistinctEvals: e.cache.DistinctEvaluations(),
			BestValue:     best.value,
			UniqueGenomes: unique,
		}
		if mv != nil {
			gp.FrontSize, gp.Hypervolume = mv.stats()
		}
		trajectory = append(trajectory, gp)
		if e.tracing {
			mean := math.NaN()
			if feasible > 0 {
				mean = sum / float64(feasible)
			}
			e.tracer.RecordGeneration(trace.GenerationRecord{
				Generation:    gen,
				BestValue:     best.value,
				BestFitness:   best.fitness,
				MeanFitness:   mean,
				Feasible:      feasible,
				UniqueGenomes: unique,
				DistinctEvals: e.cache.DistinctEvaluations(),
				FrontSize:     gp.FrontSize,
				Hypervolume:   gp.Hypervolume,
				Elapsed:       time.Since(genStart),
			})
		}
		if e.cfg.ConvergenceWindow > 0 {
			if best.fitness == prevBest && unique == 1 {
				stale++
			} else {
				stale = 0
			}
			prevBest = best.fitness
			if stale >= e.cfg.ConvergenceWindow {
				converged = true
				gspan.End()
				break
			}
		}
		if gen == e.cfg.Generations {
			gspan.End()
			break
		}
		cur = 1 - cur
		var breedStart time.Time
		if e.tracing {
			e.phaseSel, e.phaseCx, e.phaseMut = 0, 0, 0
			breedStart = time.Now()
		}
		e.nextGeneration(r, gen, pop, popBufs[cur])
		if e.tracing {
			// Breeding phases interleave per child, so they are emitted as
			// aggregated pre-measured spans sharing the breeding interval's
			// start rather than three disjoint sub-intervals.
			gspan.Emit("ga.selection", breedStart, e.phaseSel)
			gspan.Emit("ga.crossover", breedStart, e.phaseCx)
			gspan.Emit("ga.mutation", breedStart, e.phaseMut)
		}
		gspan.End()
		// Migration happens after breeding so the RNG draw sequence is
		// identical whether or not immigrants arrive; generation gen+1 is
		// the one receiving them.
		if mig := e.cfg.Migration; mig != nil && mig.due(gen+1) {
			e.migrate(ctx, gen+1, pop, popBufs[cur])
		}
		pop = popBufs[cur]
	}

	res := Result{
		BestValue:     best.value,
		Trajectory:    trajectory,
		DistinctEvals: e.cache.DistinctEvaluations(),
		Converged:     converged,
		Interrupted:   interrupted,
		Cache:         e.cache.Stats(),
	}
	if best.ok {
		res.BestPoint = best.genome
	} else {
		res.BestValue = e.obj.Worst()
	}
	if mv != nil {
		res.Front = mv.front()
		_, res.Hypervolume = mv.stats()
		res.Nadir = mv.nadirValues()
	}
	return res, nil
}

// snapshot captures the resumable state at the start of generation gen,
// before its population is evaluated.
func (e *Engine) snapshot(gen int, draws int64, pop []individual, best individual,
	stale int, prevBest float64, trajectory []GenPoint) *Snapshot {
	snap := &Snapshot{
		Seed:       e.cfg.Seed,
		Generation: gen,
		Draws:      draws,
		Population: clonePoints(pop),
		Stale:      stale,
		PrevBest:   prevBest,
		Trajectory: append([]GenPoint(nil), trajectory...),
		Cache:      e.cache.Export(),
	}
	if best.ok {
		snap.Best = best.genome.Clone()
		snap.BestFitness = best.fitness
		snap.BestValue = best.value
	}
	return snap
}

// evaluate fills in fitness for the population. The path is chosen from
// what the run can use, never configured: the batch pipeline amortizes
// worker fan-out and lock traffic, so with one worker and no bulk backend
// to feed there is nothing to amortize and inline per-point lookups are
// strictly cheaper; otherwise the whole generation goes to the cache as
// one deduplicated batch. Both paths produce identical populations and
// cache stats (see TestDispatchEquivalence). A non-nil error means ctx was
// canceled: the generation is incomplete and must be discarded.
func (e *Engine) evaluate(ctx context.Context, gen int, pop []individual) error {
	if e.cfg.Parallelism <= 1 && e.cfg.BatchBackend == nil {
		return e.evaluateInline(ctx, gen, pop)
	}
	return e.evaluateBatch(ctx, gen, pop)
}

// score interprets one evaluation outcome into the individual's fitness
// fields: errors and infeasible metrics both demote to -Inf / Worst. In
// multi-objective runs the fitness written here is provisional (the
// primary objective's) - selection fitness is reassigned population-wide
// by assignParetoFitness once the whole generation is evaluated.
func (e *Engine) score(ind *individual, m metrics.Metrics, err error) {
	if e.objs != nil {
		e.scoreMulti(ind, m, err)
		return
	}
	if err != nil {
		ind.fitness = math.Inf(-1)
		ind.value = e.obj.Worst()
		ind.ok = false
		return
	}
	ind.fitness = e.obj.Fitness(m)
	ind.value, ind.ok = e.obj.Value(m)
	if !ind.ok {
		ind.fitness = math.Inf(-1)
		ind.value = e.obj.Worst()
	}
}

// evaluateInline is the point-at-a-time path: each lookup goes straight to
// the cache's hashed entry point on the individual's precomputed genome
// hash, in population order on the calling goroutine.
func (e *Engine) evaluateInline(ctx context.Context, gen int, pop []individual) error {
	eval := func(i int) {
		ind := &pop[i]
		m, err := e.cache.EvaluateHashedCtx(ctx, ind.hash, ind.genome)
		e.score(ind, m, err)
		e.tracer.RecordEvaluation(trace.EvaluationRecord{
			Generation: gen,
			Feasible:   ind.ok,
			Fitness:    ind.fitness,
		})
	}
	return pool.EachCtx(ctx, 1, len(pop), eval, e.tracer)
}

// evaluateBatch submits the whole generation to the cache as one batch.
// Hashes, points, and outcomes stay index-aligned, so the scored
// population is identical to evaluateInline's.
func (e *Engine) evaluateBatch(ctx context.Context, gen int, pop []individual) error {
	if cap(e.batchPts) < len(pop) {
		e.batchPts = make([]param.Point, 0, len(pop))
		e.batchHashes = make([]uint64, 0, len(pop))
	}
	pts, hashes := e.batchPts[:0], e.batchHashes[:0]
	for i := range pop {
		hashes = append(hashes, pop[i].hash)
		pts = append(pts, pop[i].genome)
	}
	ms, errs, err := e.cache.EvaluateBatchHashedCtx(ctx, hashes, pts, e.cfg.Parallelism)
	if err != nil {
		return err
	}
	for i := range pop {
		ind := &pop[i]
		e.score(ind, ms[i], errs[i])
		e.tracer.RecordEvaluation(trace.EvaluationRecord{
			Generation: gen,
			Feasible:   ind.ok,
			Fitness:    ind.fitness,
		})
	}
	return ctx.Err()
}

// nextGeneration breeds the following population into next's arena-backed
// genome slots: elites first, then children from selected parents via
// crossover and mutation. Parents live in pop's arena and children are
// written into next's, so nothing here allocates.
func (e *Engine) nextGeneration(r *rand.Rand, gen int, pop, next []individual) {
	// Elites: the top-Elitism genomes by fitness.
	if e.order == nil || len(e.order) != len(pop) {
		e.order = make([]int, len(pop))
	}
	order := e.order
	for i := range order {
		order[i] = i
	}
	// Partial selection sort is plenty for tiny populations.
	for k := 0; k < e.cfg.Elitism; k++ {
		maxI := k
		for j := k + 1; j < len(order); j++ {
			if pop[order[j]].fitness > pop[order[maxI]].fitness {
				maxI = j
			}
		}
		order[k], order[maxI] = order[maxI], order[k]
		// The elite genome is unchanged, so its hash carries over.
		elite := &pop[order[k]]
		copy(next[k].genome, elite.genome)
		next[k].hash = elite.hash
	}

	sel := e.newSelector(pop)
	for i := e.cfg.Elitism; i < len(next); i++ {
		child := &next[i]
		e.breedInto(r, gen, child.genome, sel)
		child.hash = e.space.Hash64(child.genome)
	}
}

// selector draws parents from the evaluated population.
type selector func(r *rand.Rand) individual

// newSelector builds the configured selection scheme over the population.
func (e *Engine) newSelector(pop []individual) selector {
	switch e.cfg.Selection {
	case SelectTournament:
		return func(r *rand.Rand) individual {
			best := pop[r.Intn(len(pop))]
			for i := 1; i < e.cfg.TournamentSize; i++ {
				c := pop[r.Intn(len(pop))]
				if c.fitness > best.fitness {
					best = c
				}
			}
			return best
		}
	default: // SelectRankRoulette
		// Rank individuals by fitness ascending; selection probability is
		// proportional to 1-based rank (linear ranking, scale-free - the
		// PyEvolve-style scheme, robust to fitness magnitude).
		order := make([]int, len(pop))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return pop[order[a]].fitness < pop[order[b]].fitness
		})
		total := len(pop) * (len(pop) + 1) / 2
		return func(r *rand.Rand) individual {
			x := r.Intn(total)
			for rank := len(pop); rank >= 1; rank-- {
				x -= rank
				if x < 0 {
					return pop[order[rank-1]]
				}
			}
			return pop[order[len(pop)-1]]
		}
	}
}

// breedInto produces one child genome in the caller-provided (arena-backed)
// slot. The RNG draw sequence is identical to the historical allocate-and-
// return implementation, so runs stay byte-identical.
func (e *Engine) breedInto(r *rand.Rand, gen int, child param.Point, sel selector) {
	// Phase timing (tracing only) brackets the same calls the untraced path
	// makes, in the same order, so the RNG draw sequence is untouched.
	// Parent draws (and the crossover coin) count as selection; the
	// recombination itself as crossover; the strategy pass as mutation.
	var t0 time.Time
	if e.tracing {
		t0 = time.Now()
	}
	p1 := sel(r)
	if r.Float64() < e.cfg.CrossoverRate {
		p2 := sel(r)
		if e.tracing {
			now := time.Now()
			e.phaseSel += now.Sub(t0)
			t0 = now
		}
		e.crossoverInto(r, child, p1.genome, p2.genome)
		if e.tracing {
			now := time.Now()
			e.phaseCx += now.Sub(t0)
			t0 = now
		}
	} else {
		copy(child, p1.genome)
		if e.tracing {
			now := time.Now()
			e.phaseSel += now.Sub(t0)
			t0 = now
		}
	}
	for _, g := range e.strategy.MutationGenes(r, gen, child, e.cfg.MutationRate) {
		if g < 0 || g >= len(child) {
			continue // defensive: ignore out-of-range picks from strategies
		}
		nv := e.strategy.MutateValue(r, gen, g, child[g])
		if nv >= 0 && nv < e.space.Param(g).Card() {
			child[g] = nv
		}
	}
	if e.tracing {
		e.phaseMut += time.Since(t0)
	}
}

// crossoverInto applies the configured crossover operator, writing parent
// a's genome modified by b's into child. a and b live in the previous
// generation's arena, child in the next's, so the copies never alias.
func (e *Engine) crossoverInto(r *rand.Rand, child, a, b param.Point) {
	copy(child, a)
	switch e.cfg.Crossover {
	case CrossoverUniform:
		for g := range child {
			if r.Intn(2) == 1 {
				child[g] = b[g]
			}
		}
	case CrossoverTwoPoint:
		if len(child) >= 2 {
			i, j := r.Intn(len(child)), r.Intn(len(child))
			if i > j {
				i, j = j, i
			}
			copy(child[i:j+1], b[i:j+1])
		}
	default: // CrossoverSinglePoint
		cut := r.Intn(len(child))
		copy(child[cut:], b[cut:])
	}
}
