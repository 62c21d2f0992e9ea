package core_test

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pareto"
)

// nocBiObjective assembles the acceptance scenario: the NoC router space
// under its two natural competing objectives, minimize LUTs and maximize
// frequency.
func nocBiObjective(t *testing.T) (*catalog.Entry, *catalog.Entry, []metrics.Objective) {
	t.Helper()
	luts, err := catalog.Lookup("noc", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	freq, err := catalog.Lookup("noc", "max-frequency")
	if err != nil {
		t.Fatal(err)
	}
	return luts, freq, []metrics.Objective{luts.Objective, freq.Objective}
}

// nocCfg: the pareto run must push both ends of the front to their true
// optima, so it gets enough elite slots to retain several boundary
// members (Inf-crowding individuals all score the same NSGA-II fitness)
// and a budget sized for a 27,648-point space.
func nocCfg(par int) ga.Config {
	return ga.Config{PopulationSize: 32, Generations: 100, Elitism: 6, Seed: 5, Parallelism: par}
}

// exhaustiveOptimum scans the whole space for the true optimum of obj.
func exhaustiveOptimum(t *testing.T, space *param.Space, eval dataset.Evaluator, obj metrics.Objective) float64 {
	t.Helper()
	best := obj.Worst()
	found := false
	space.Enumerate(func(pt param.Point) bool {
		m, err := eval(pt)
		if err != nil {
			return true
		}
		v, ok := obj.Value(m)
		if !ok {
			return true
		}
		if !found || obj.Better(v, best) {
			best = v
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("space has no feasible points")
	}
	return best
}

// TestParetoNoCFrontExtremesMatchScalarOptima is the tentpole acceptance
// test: a 2-objective pareto run on the NoC space returns a mutually
// non-dominating front whose extreme points match what two independent
// scalar runs (one per objective) find - which in turn match the
// exhaustive per-objective optima.
func TestParetoNoCFrontExtremesMatchScalarOptima(t *testing.T) {
	luts, freq, objs := nocBiObjective(t)
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space:      luts.Space,
		Mode:       core.ModePareto,
		Objectives: objs,
		Evaluate:   luts.Eval,
		Config:     nocCfg(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) < 2 {
		t.Fatalf("front has %d members, want a trade-off set", len(res.Front))
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && pareto.DominatesValues(objs, res.Front[i].Values, res.Front[j].Values) {
				t.Errorf("front member %d dominates %d", i, j)
			}
		}
	}

	// Scalar references: one independent run per objective.
	scalar := func(e *catalog.Entry, seed int64) float64 {
		cfg := nocCfg(2)
		cfg.Seed = seed
		r, err := core.Search(context.Background(), core.SearchRequest{
			Space:     e.Space,
			Objective: e.Objective,
			Evaluate:  e.Eval,
			Config:    cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.BestPoint == nil {
			t.Fatalf("scalar %s run found nothing feasible", e.Query)
		}
		return r.BestValue
	}
	scalarLuts := scalar(luts, 5)
	scalarFreq := scalar(freq, 6)

	// Ground truth, so a shared miss by both searches can't silently pass.
	trueLuts := exhaustiveOptimum(t, luts.Space, luts.Eval, luts.Objective)
	trueFreq := exhaustiveOptimum(t, freq.Space, freq.Eval, freq.Objective)
	if scalarLuts != trueLuts {
		t.Fatalf("scalar min-luts run missed the optimum: %v vs %v", scalarLuts, trueLuts)
	}
	if scalarFreq != trueFreq {
		t.Fatalf("scalar max-frequency run missed the optimum: %v vs %v", scalarFreq, trueFreq)
	}

	// The front is canonically ordered best-first on the primary objective
	// (min-luts), so its ends are the per-objective extremes.
	gotLuts := res.Front[0].Values[0]
	gotFreq := res.Front[len(res.Front)-1].Values[1]
	if gotLuts != scalarLuts {
		t.Errorf("front LUT extreme %v != scalar optimum %v", gotLuts, scalarLuts)
	}
	if gotFreq != scalarFreq {
		t.Errorf("front frequency extreme %v != scalar optimum %v", gotFreq, scalarFreq)
	}
	if res.Hypervolume <= 0 {
		t.Errorf("hypervolume = %v, want > 0", res.Hypervolume)
	}
}

// TestParetoNoCByteIdentical pins the determinism contract on the NoC
// acceptance scenario: deeply identical results at -par 1 and -par 8.
func TestParetoNoCByteIdentical(t *testing.T) {
	luts, _, objs := nocBiObjective(t)
	run := func(par int) ga.Result {
		res, err := core.Search(context.Background(), core.SearchRequest{
			Space:      luts.Space,
			Mode:       core.ModePareto,
			Objectives: objs,
			Evaluate:   luts.Eval,
			Config:     nocCfg(par),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if got := run(8); !reflect.DeepEqual(got, ref) {
		t.Fatal("par=8 diverged from the par=1 reference")
	}
}

func TestSearchModeValidation(t *testing.T) {
	luts, _, objs := nocBiObjective(t)
	base := core.SearchRequest{Space: luts.Space, Objective: luts.Objective, Evaluate: luts.Eval, Config: nocCfg(1)}

	bad := base
	bad.Mode = "simplex"
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("unknown mode should be rejected")
	}
	bad = base
	bad.Objectives = objs
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("Objectives in scalar mode should be rejected")
	}
	bad = base
	bad.Mode = core.ModePareto
	bad.Objectives = objs[:1]
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("single-objective pareto should be rejected")
	}
	bad = base
	bad.Mode = core.ModePortfolio
	bad.Objectives = objs
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("Objectives in portfolio mode should be rejected")
	}
	bad = base
	bad.Mode = core.ModePortfolio
	bad.Config.Checkpoint, bad.Config.CheckpointEvery = func(*ga.Snapshot) error { return nil }, 2
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("portfolio + checkpoint should be rejected")
	}
	bad = base
	bad.Mode = core.ModePortfolio
	bad.Config.Migration = &ga.Migration{Interval: 2, Count: 1, Exchange: func(context.Context, int, []ga.Migrant) ([]ga.Migrant, error) { return nil, nil }}
	if _, err := core.Search(context.Background(), bad); err == nil {
		t.Error("portfolio + migration should be rejected")
	}
}

// portfolioSpace is small enough (256 points) that racing strategies
// overlap heavily in the shared cache - the property the dedup ratio
// acceptance bound pins.
func portfolioSpace() (*param.Space, dataset.Evaluator, metrics.Objective) {
	s := param.MustSpace(
		param.Int("a", 0, 7, 1),
		param.Int("b", 0, 7, 1),
		param.Int("c", 0, 3, 1),
	)
	eval := func(pt param.Point) (metrics.Metrics, error) {
		a, b, c := float64(pt[0]), float64(pt[1]), float64(pt[2])
		return metrics.Metrics{"cost": 3 + (a-5)*(a-5) + (b-2)*(b-2) + 1.5*c + 0.25*a*c}, nil
	}
	return s, eval, metrics.MinimizeMetric("cost")
}

// TestPortfolioDedupBound is the portfolio acceptance test: the race's
// total evaluator invocations (shared-cache Stats) stay within 1.25x the
// best single strategy's spend, because every strategy's evaluations land
// in the same dedup cache.
func TestPortfolioDedupBound(t *testing.T) {
	space, eval, obj := portfolioSpace()
	var rawCalls atomic.Int64
	counted := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		rawCalls.Add(1)
		return eval(pt)
	}
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space:       space,
		Mode:        core.ModePortfolio,
		Objective:   obj,
		EvaluateCtx: counted,
		Config:      ga.Config{PopulationSize: 10, Generations: 30, Seed: 9, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Portfolio) != 2 {
		t.Fatalf("unguided portfolio should race 2 strategies, got %+v", res.Portfolio)
	}
	bestSingle := 0
	winners := 0
	for _, o := range res.Portfolio {
		if o.DistinctEvals > bestSingle {
			bestSingle = o.DistinctEvals
		}
		if o.Winner {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("want exactly one winner, got %d: %+v", winners, res.Portfolio)
	}
	if res.DistinctEvals != res.Cache.Distinct {
		t.Fatalf("merged DistinctEvals %d != shared cache Distinct %d", res.DistinctEvals, res.Cache.Distinct)
	}
	if got := int(rawCalls.Load()); got != res.DistinctEvals {
		t.Fatalf("raw evaluator saw %d calls, shared cache reports %d distinct", got, res.DistinctEvals)
	}
	limit := int(math.Ceil(1.25 * float64(bestSingle)))
	if res.DistinctEvals > limit {
		t.Errorf("portfolio spent %d distinct evaluations, want <= 1.25x best single strategy (%d -> limit %d)",
			res.DistinctEvals, bestSingle, limit)
	}
	if res.BestPoint == nil {
		t.Fatal("portfolio found nothing feasible")
	}
	// The merged best can never be worse than any single strategy's.
	for _, o := range res.Portfolio {
		if o.Feasible && obj.Better(o.BestValue, res.BestValue) {
			t.Errorf("strategy %s beat the merged result: %v vs %v", o.Strategy, o.BestValue, res.BestValue)
		}
	}
}

// TestPortfolioDeterministic: the merged result (winner choice, per-
// strategy outcomes, race-tier accounting) is identical run to run, across
// parallelism, and stacked on a shared cache - as the server runs every
// session - which must see exactly the race tier's misses.
func TestPortfolioDeterministic(t *testing.T) {
	space, eval, obj := portfolioSpace()
	run := func(par int, shared *dataset.Cache) ga.Result {
		res, err := core.Search(context.Background(), core.SearchRequest{
			Space:     space,
			Mode:      core.ModePortfolio,
			Objective: obj,
			Evaluate:  eval,
			Config:    ga.Config{PopulationSize: 10, Generations: 30, Seed: 9, Parallelism: par, Shared: shared},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, nil)
	for _, par := range []int{1, 8} {
		for _, stacked := range []bool{false, true} {
			var shared *dataset.Cache
			if stacked {
				shared = dataset.NewCache(space, eval)
			}
			got := run(par, shared)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("par=%d stacked=%t portfolio diverged: distinct/queries/hits %d/%d/%d, want %d/%d/%d\n got %+v\nwant %+v",
					par, stacked, got.DistinctEvals, got.Cache.Total, got.Cache.Hits,
					ref.DistinctEvals, ref.Cache.Total, ref.Cache.Hits, got, ref)
			}
			if stacked {
				if st := shared.Stats(); st.Total != ref.Cache.Distinct+ref.Cache.Transient || st.Distinct != ref.DistinctEvals {
					t.Errorf("par=%d: shared cache stats %+v, want one lookup per race-tier miss (%d distinct)",
						par, st, ref.DistinctEvals)
				}
			}
		}
	}
}

// TestPortfolioLeadReproducesSoloRun: strategy index 0 keeps the request
// seed, so the portfolio's lead strategy reports exactly what a solo
// scalar run would have found.
func TestPortfolioLeadReproducesSoloRun(t *testing.T) {
	space, eval, obj := portfolioSpace()
	cfg := ga.Config{PopulationSize: 10, Generations: 30, Seed: 4, Parallelism: 1}
	solo, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Objective: obj, Evaluate: eval, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	port, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Mode: core.ModePortfolio, Objective: obj, Evaluate: eval, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	lead := port.Portfolio[0]
	if lead.Strategy != core.StrategyBaseline {
		t.Fatalf("unguided lead should be the baseline, got %q", lead.Strategy)
	}
	if lead.BestValue != solo.BestValue || lead.DistinctEvals != solo.DistinctEvals {
		t.Errorf("lead strategy diverged from solo run: %+v vs best=%v evals=%d",
			lead, solo.BestValue, solo.DistinctEvals)
	}
}
