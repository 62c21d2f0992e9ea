package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
	"nautilus/internal/resilience/faulty"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// accountingCase is one generated search for the cache-accounting
// property: a space, a GA configuration, a fault plan, and the generation
// at which an interrupted copy of the run is canceled.
type accountingCase struct {
	cards    []int
	seed     int64
	pop      int
	gens     int
	window   int
	par      int
	pareto   bool
	faults   int64
	failures int
	cancelAt int
}

func (accountingCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := accountingCase{
		cards:    make([]int, 1+r.Intn(4)),
		seed:     r.Int63n(1 << 31),
		pop:      2 + r.Intn(12),
		gens:     1 + r.Intn(12),
		par:      []int{1, 4}[r.Intn(2)],
		pareto:   r.Intn(2) == 0,
		faults:   r.Int63(),
		failures: 1 + r.Intn(5),
	}
	for i := range c.cards {
		c.cards[i] = 2 + r.Intn(6)
	}
	if r.Intn(3) == 0 {
		c.window = 2 + r.Intn(3)
	}
	c.cancelAt = 1 + r.Intn(c.gens)
	return reflect.ValueOf(c)
}

// space builds the case's design space.
func (c accountingCase) space() *param.Space {
	ps := make([]*param.Param, len(c.cards))
	for i, card := range c.cards {
		ps[i] = param.Int(fmt.Sprintf("p%d", i), 0, card-1, 1)
	}
	return param.MustSpace(ps...)
}

// evaluator returns a fresh supervised evaluator over the case's space:
// a deterministic model with some infeasible points, under an injector
// that fails 20% of the points transiently for their first c.failures
// attempts. The supervisor's 3 attempts absorb one or two failures; more
// reach the cache as withdrawn transient errors, and a point that keeps
// failing is quarantined.
func (c accountingCase) evaluator(t *testing.T, space *param.Space) dataset.ContextEvaluator {
	t.Helper()
	model := func(_ context.Context, pt param.Point) (metrics.Metrics, error) {
		cost, area := 0.0, 0.0
		for i, v := range pt {
			cost += float64((v + 1) * (i + 2))
			area += float64((c.cards[i] - v) * (3*i + 1))
		}
		if int(cost+area)%7 == 0 {
			return nil, errors.New("infeasible")
		}
		return metrics.Metrics{"cost": cost, "area": area}, nil
	}
	inj, err := faulty.NewContext(space, model, faulty.Config{
		TransientRate: 0.2, TransientFailures: c.failures, Seed: c.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := resilience.NewSupervisor(space, inj.Evaluate, resilience.Policy{Sleep: func(time.Duration) {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sup.Evaluate
}

// search runs the case through core.Search with tr as its trace stream.
func (c accountingCase) search(t *testing.T, ctx context.Context, space *param.Space, eval dataset.ContextEvaluator,
	tr *trace.Tracer, resume *ga.Snapshot, checkpoint func(*ga.Snapshot) error) ga.Result {
	t.Helper()
	req := core.SearchRequest{
		Space:       space,
		Objective:   metrics.MinimizeMetric("cost"),
		EvaluateCtx: eval,
		Config: ga.Config{
			PopulationSize:    c.pop,
			Generations:       c.gens,
			Seed:              c.seed,
			Parallelism:       c.par,
			ConvergenceWindow: c.window,
			Resume:            resume,
			Checkpoint:        checkpoint,
			CheckpointEvery:   1000,
		},
	}
	if c.pareto {
		req.Mode = core.ModePareto
		req.Objectives = []metrics.Objective{metrics.MinimizeMetric("cost"), metrics.MinimizeMetric("area")}
	}
	res, err := core.Search(ctx, req, core.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cacheTally sums the cache fields of generation records.
type cacheTally struct {
	trace.NopSink
	gens                                        int
	hits, misses, dedups, transient, collisions int
	onGeneration                                func(trace.GenerationRecord)
}

func (s *cacheTally) OnGeneration(g trace.GenerationRecord) {
	s.gens++
	s.hits += g.CacheHits
	s.misses += g.CacheMisses
	s.dedups += g.CacheDedups
	s.transient += g.CacheTransient
	s.collisions += g.CacheCollisions
	if s.onGeneration != nil {
		s.onGeneration(g)
	}
}

// matches reports whether the tallied records account for st exactly.
func (s *cacheTally) matches(st dataset.CacheStats) bool {
	return s.hits+s.misses+s.dedups == st.Total && s.misses == st.Distinct+st.Transient &&
		s.transient == st.Transient && s.collisions == st.Collisions
}

// collectorMatches reports whether col's cache counters equal the tally.
func collectorMatches(col *telemetry.Collector, s *cacheTally) bool {
	reg := col.Registry()
	return reg.Counter(telemetry.MetricCacheHits).Value() == int64(s.hits) &&
		reg.Counter(telemetry.MetricCacheMisses).Value() == int64(s.misses) &&
		reg.Counter(telemetry.MetricCacheDedups).Value() == int64(s.dedups) &&
		reg.Counter(telemetry.MetricCacheTransient).Value() == int64(s.transient) &&
		reg.Counter(telemetry.MetricCacheCollisions).Value() == int64(s.collisions) &&
		reg.Counter(telemetry.MetricGenerations).Value() == int64(s.gens)
}

// TestQuickGenerationRecordsCarryCacheCounts: the cache fields of a
// completed run's generation records add up to the run's own cache
// accounting - hits + misses + dedups = Total, misses = Distinct +
// Transient, collisions = Collisions - and a Collector on the same stream
// reads the same totals. A copy of the run canceled before a generated
// generation's batch and resumed from its final checkpoint has records
// that together account for the uninterrupted run's cache exactly: the
// canceled batch counts in neither. Spaces, seeds, populations,
// generation counts, parallelism (1 and 4), mode (scalar and pareto) and
// transient fault plans under a resilience.Supervisor are generated.
func TestQuickGenerationRecordsCarryCacheCounts(t *testing.T) {
	f := func(c accountingCase) bool {
		space := c.space()

		whole, col := &cacheTally{}, telemetry.NewCollector(nil)
		ref := c.search(t, context.Background(), space, c.evaluator(t, space),
			trace.New(trace.Config{Seed: 1, Sinks: []trace.Sink{whole, col}}), nil, nil)
		if ref.Interrupted || !whole.matches(ref.Cache) || !collectorMatches(col, whole) {
			t.Logf("%+v: records %+v, collector %v, result %+v", c, *whole, col.Registry().Snapshot().Counters, ref.Cache)
			return false
		}

		// The interrupted copy keeps one evaluator across the cancel and
		// the resume, as a resumed process keeps its tool state: the
		// canceled batch never reaches it, so the resumed run sees the
		// evaluator exactly as the uninterrupted run did.
		eval := c.evaluator(t, space)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		parts, col2 := &cacheTally{}, telemetry.NewCollector(nil)
		parts.onGeneration = func(g trace.GenerationRecord) {
			if g.Generation == c.cancelAt-1 {
				cancel()
			}
		}
		var last *ga.Snapshot
		cut := c.search(t, ctx, space, eval, trace.New(trace.Config{Seed: 1, Sinks: []trace.Sink{parts, col2}}),
			nil, func(s *ga.Snapshot) error { last = s; return nil })
		got := cut
		if cut.Interrupted {
			if last == nil || last.Generation != c.cancelAt {
				t.Logf("%+v: canceled run checkpointed %+v", c, last)
				return false
			}
			got = c.search(t, context.Background(), space, eval,
				trace.New(trace.Config{Seed: 1, Sinks: []trace.Sink{parts, col2}}), last, nil)
		}
		if !reflect.DeepEqual(got, ref) || !parts.matches(ref.Cache) || !collectorMatches(col2, parts) {
			t.Logf("%+v: canceled at %v, records %+v, result %+v, want %+v", c, cut.Interrupted, *parts, got.Cache, ref.Cache)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
