package telemetry

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"nautilus/internal/telemetry/trace"
)

// Metric names the Collector maintains in its Registry. Exported so tests
// and the debug endpoint can reference them without string drift.
const (
	MetricGenerations     = "ga.generations"
	MetricEvaluations     = "ga.evaluations"
	MetricEvalInfeasible  = "ga.evaluations_infeasible"
	MetricCacheHits       = "cache.hits"
	MetricCacheMisses     = "cache.misses"
	MetricCacheDedups     = "cache.dedup_waits"
	MetricCacheTransient  = "cache.transient_errors"
	MetricCacheCollisions = "cache.collisions"
	MetricPoolTasks       = "pool.tasks"
	MetricPoolBusy        = "pool.workers_busy"
	MetricPoolBusyMax     = "pool.workers_busy_max"
	hintMetricPrefix      = "hints."
	gateGuidedMetric      = "hints.gate_guided"
	gateUnguidedMetric    = "hints.gate_unguided"
)

// Collector is the trace sink that aggregates run events into a Registry
// and retains the per-generation trajectory, powering the end-of-run
// summary and the live metrics endpoints. Spans pass it by (the Durations
// sink aggregates those). It is safe for concurrent use; counter updates
// are atomic and only generation retention takes a mutex.
//
// The registry holds only what stays meaningful when many runs feed one
// collector - counters that sum across runs and the pool's busy-worker
// gauges - so one collector can aggregate any number of concurrent
// searches (the nautserve daemon feeds every session into one). A run's own values -
// best value, mean fitness, diversity, distinct evaluations, generation
// latency - live on its generation records (Generations, the journal, a
// server session's status and SSE stream) and on the ga.generation span.
type Collector struct {
	trace.NopSink
	reg *Registry

	generations    *Counter
	evals          *Counter
	evalInfeasible *Counter

	hintCounters map[string]*Counter // per mechanism, pre-resolved
	gateGuided   *Counter
	gateUnguided *Counter

	cacheHits       *Counter
	cacheMisses     *Counter
	cacheDedups     *Counter
	cacheTransient  *Counter
	cacheCollisions *Counter

	poolTasks *Counter
	poolBusy  *Gauge
	poolMax   *Gauge

	mu     sync.Mutex
	gens   []trace.GenerationRecord
	retain bool
}

// NewCollector builds a collector over reg (a fresh registry when nil).
func NewCollector(reg *Registry) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	c := &Collector{
		reg:             reg,
		generations:     reg.Counter(MetricGenerations),
		evals:           reg.Counter(MetricEvaluations),
		evalInfeasible:  reg.Counter(MetricEvalInfeasible),
		hintCounters:    make(map[string]*Counter, 5),
		gateGuided:      reg.Counter(gateGuidedMetric),
		gateUnguided:    reg.Counter(gateUnguidedMetric),
		cacheHits:       reg.Counter(MetricCacheHits),
		cacheMisses:     reg.Counter(MetricCacheMisses),
		cacheDedups:     reg.Counter(MetricCacheDedups),
		cacheTransient:  reg.Counter(MetricCacheTransient),
		cacheCollisions: reg.Counter(MetricCacheCollisions),
		poolTasks:       reg.Counter(MetricPoolTasks),
		poolBusy:        reg.Gauge(MetricPoolBusy),
		poolMax:         reg.Gauge(MetricPoolBusyMax),
	}
	c.retain = true
	for _, mech := range []string{
		trace.HintGeneImportance, trace.HintGeneUniform,
		trace.HintValueTarget, trace.HintValueBias, trace.HintValueUniform,
	} {
		c.hintCounters[mech] = reg.Counter(hintMetricPrefix + mech)
	}
	return c
}

// DisableGenerationRetention stops the collector from keeping the
// per-generation record slice. Aggregate counters and gauges are
// unaffected; Generations returns nil afterwards. Long-lived processes
// (the nautserve daemon) aggregate unbounded numbers of runs into one
// collector and must not grow memory per generation.
func (c *Collector) DisableGenerationRetention() {
	c.mu.Lock()
	c.retain = false
	c.gens = nil
	c.mu.Unlock()
}

// Registry returns the collector's backing registry (for ServeDebug).
func (c *Collector) Registry() *Registry { return c.reg }

// OnGeneration implements trace.Sink: it counts the generation and adds
// its cache lookups to the cache counters.
func (c *Collector) OnGeneration(g trace.GenerationRecord) {
	c.generations.Inc()
	c.cacheHits.Add(int64(g.CacheHits))
	c.cacheMisses.Add(int64(g.CacheMisses))
	c.cacheDedups.Add(int64(g.CacheDedups))
	c.cacheTransient.Add(int64(g.CacheTransient))
	c.cacheCollisions.Add(int64(g.CacheCollisions))
	c.mu.Lock()
	if c.retain {
		c.gens = append(c.gens, g)
	}
	c.mu.Unlock()
}

// OnEvaluation implements trace.Sink.
func (c *Collector) OnEvaluation(e trace.EvaluationRecord) {
	c.evals.Inc()
	if !e.Feasible {
		c.evalInfeasible.Inc()
	}
}

// OnHint implements trace.Sink.
func (c *Collector) OnHint(h trace.HintRecord) {
	if ctr, ok := c.hintCounters[h.Mechanism]; ok {
		ctr.Inc()
	}
	switch h.Mechanism {
	case trace.HintValueTarget, trace.HintValueBias, trace.HintValueUniform:
		if h.Guided {
			c.gateGuided.Inc()
		} else {
			c.gateUnguided.Inc()
		}
	}
}

// OnPool implements trace.Sink.
func (c *Collector) OnPool(p trace.PoolRecord) {
	switch p.Event {
	case trace.PoolTask:
		c.poolTasks.Inc()
	case trace.PoolWorkerBusy:
		c.poolBusy.Add(1)
		c.poolMax.Max(c.poolBusy.Value())
	case trace.PoolWorkerIdle:
		c.poolBusy.Add(-1)
	}
}

// Generations returns a copy of the retained per-generation records.
func (c *Collector) Generations() []trace.GenerationRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.GenerationRecord(nil), c.gens...)
}

// hintCount returns the aggregated count for a mechanism.
func (c *Collector) hintCount(mech string) int64 {
	if ctr, ok := c.hintCounters[mech]; ok {
		return ctr.Value()
	}
	return 0
}

// WriteSummary renders the human-readable end-of-run report: the
// per-generation trajectory table (omitted once generation retention is
// disabled), then evaluation, cache, hint-application, and pool totals.
// Hint rates read directly against the paper's confidence sweep: at
// confidence c, roughly a fraction c of value moves should be guided.
func (c *Collector) WriteSummary(w io.Writer) error {
	gens := c.Generations()
	fmt.Fprintln(w, "== run telemetry ==")
	if len(gens) > 0 {
		fmt.Fprintln(w, "gen  distinct-evals  best-so-far   mean-fitness  unique  elapsed")
		for _, g := range gens {
			fmt.Fprintf(w, "%3d  %14d  %-12.6g  %-12.6g  %6d  %s\n",
				g.Generation, g.DistinctEvals, g.BestValue, g.MeanFitness,
				g.UniqueGenomes, g.Elapsed.Round(time.Microsecond))
		}
	}
	evals := c.evals.Value()
	fmt.Fprintf(w, "evaluations:  %d requested, %d infeasible\n",
		evals, c.evalInfeasible.Value())

	hits, misses, dedups := c.cacheHits.Value(), c.cacheMisses.Value(), c.cacheDedups.Value()
	if total := hits + misses + dedups; total > 0 {
		fmt.Fprintf(w, "cache:        %d lookups: %d hits (%.1f%% hit ratio), %d misses, %d deduped waits",
			total, hits, 100*float64(hits)/float64(total), misses, dedups)
		if collisions := c.cacheCollisions.Value(); collisions > 0 {
			fmt.Fprintf(w, ", %d hash collisions", collisions)
		}
		fmt.Fprintln(w)
	}
	if transient := c.cacheTransient.Value(); transient > 0 {
		fmt.Fprintf(w, "faults:       %d transient evaluation failures withdrawn from the cache\n", transient)
	}
	// Supervisor counters appear when a resilience policy shares this
	// registry (referenced by name to keep telemetry independent of the
	// resilience package; read through a snapshot so absent counters are
	// not registered as zeros).
	snap := c.reg.Snapshot()
	retries := snap.Counters["resilience.retries"]
	timeouts := snap.Counters["resilience.timeouts"]
	quarantined := snap.Counters["resilience.quarantined"]
	if retries+timeouts+quarantined > 0 {
		fmt.Fprintf(w, "resilience:   %d retries, %d timeouts, %d points quarantined\n",
			retries, timeouts, quarantined)
	}

	genePicks := c.hintCount(trace.HintGeneImportance) + c.hintCount(trace.HintGeneUniform)
	valueMoves := c.hintCount(trace.HintValueTarget) + c.hintCount(trace.HintValueBias) + c.hintCount(trace.HintValueUniform)
	if genePicks+valueMoves > 0 {
		fmt.Fprintf(w, "hints:        gene picks %d importance-weighted / %d uniform; value moves %d target, %d bias, %d uniform\n",
			c.hintCount(trace.HintGeneImportance), c.hintCount(trace.HintGeneUniform),
			c.hintCount(trace.HintValueTarget), c.hintCount(trace.HintValueBias), c.hintCount(trace.HintValueUniform))
		guided, unguided := c.gateGuided.Value(), c.gateUnguided.Value()
		if gate := guided + unguided; gate > 0 {
			fmt.Fprintf(w, "confidence:   gate guided %d / unguided %d (%.1f%% applied)\n",
				guided, unguided, 100*float64(guided)/float64(gate))
		}
	}

	if tasks := c.poolTasks.Value(); tasks > 0 {
		maxBusy := c.poolMax.Value()
		if math.IsNaN(maxBusy) {
			maxBusy = 0
		}
		fmt.Fprintf(w, "pool:         %d tasks, peak %d workers busy\n", tasks, int(maxBusy))
	}
	return nil
}
