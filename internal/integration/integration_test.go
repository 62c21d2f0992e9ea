// Package integration exercises the complete IP-user story end to end, per
// bundled generator: characterize (or calibrate hints over) the design
// space, run a guided search for a stated goal, verify the answer's quality
// against ground truth, and emit RTL for the winning configuration.
package integration

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/fft"
	"nautilus/internal/ga"
	"nautilus/internal/gemm"
	"nautilus/internal/hintcal"
	"nautilus/internal/metrics"
	"nautilus/internal/noc"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
	"nautilus/internal/resilience/faulty"
)

func TestEndToEndFFT(t *testing.T) {
	// The IP ships with its space, evaluator, and expert hints.
	space := fft.Space()
	eval := func(pt param.Point) (metrics.Metrics, error) { return fft.Evaluate(space, pt) }
	obj := metrics.MinimizeMetric(metrics.LUTs)
	guidance, err := fft.ExpertHints().GuidanceForObjective(obj, 0.9)
	if err != nil {
		t.Fatal(err)
	}

	// The user states a goal and runs the search.
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Objective: obj, Evaluate: eval, Config: ga.Config{Seed: 11},
	}, core.WithGuidance(guidance))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("no design found")
	}

	// Ground truth: the answer must sit in the top 1% of the full space.
	ds, err := dataset.Build(space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.InTopPercent(obj, res.BestValue, 1) {
		t.Errorf("found %v LUTs, not in the top 1%% (optimum %v)",
			res.BestValue, ds.Quantile(obj, 0))
	}
	// ...at a tiny fraction of exhaustive cost.
	if res.DistinctEvals > ds.Size()/10 {
		t.Errorf("spent %d evals, more than 10%% of the space", res.DistinctEvals)
	}

	// The generator emits RTL for the chosen configuration.
	design, err := fft.Decode(space, res.BestPoint).Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if err := design.Check(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(design.Verilog(), "module fft_top") {
		t.Error("emitted RTL missing top module")
	}
}

func TestEndToEndNoC(t *testing.T) {
	// No expert available: hints are estimated from a small sample, the
	// paper's non-expert path.
	space := noc.RouterSpace()
	eval := func(pt param.Point) (metrics.Metrics, error) { return noc.RouterEvaluate(space, pt) }
	obj := metrics.MaximizeMetric(metrics.FmaxMHz)

	lib, spent, err := hintcal.Estimate(space, eval,
		[]string{metrics.FmaxMHz, metrics.LUTs}, hintcal.Options{Budget: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if spent > 120 {
		t.Errorf("calibration spent %d evals, want near 80", spent)
	}
	guidance, err := lib.GuidanceForObjective(obj, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Objective: obj, Evaluate: eval, Config: ga.Config{Seed: 3},
	}, core.WithGuidance(guidance))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("no design found")
	}
	ds, err := dataset.Build(space, eval)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.InTopPercent(obj, res.BestValue, 2) {
		t.Errorf("found %.1f MHz, not in the top 2%% (best %.1f)",
			res.BestValue, ds.Quantile(obj, 0))
	}

	design, err := noc.DecodeRouter(space, res.BestPoint).Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if err := design.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndGEMMWithConstraints(t *testing.T) {
	// A constrained composite query on the third generator: maximize
	// compute efficiency subject to an area budget.
	space := gemm.Space()
	eval := func(pt param.Point) (metrics.Metrics, error) { return gemm.Evaluate(space, pt) }
	base := metrics.MaximizeDerived("gmacs_per_lut", metrics.Ratio(gemm.MetricGMACS, metrics.LUTs))
	obj := base.Constrained(metrics.AtMost(metrics.LUTs, 20000))
	guidance, err := gemm.ExpertHints().Guidance(metrics.Maximize, map[string]float64{
		gemm.MetricEfficiency: 1,
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Objective: obj, Evaluate: eval, Config: ga.Config{Seed: 7},
	}, core.WithGuidance(guidance))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("no feasible design found")
	}
	m, err := eval(res.BestPoint)
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := m.Get(metrics.LUTs); l > 20000 {
		t.Errorf("constraint violated: %v LUTs", l)
	}
	design, err := gemm.Decode(space, res.BestPoint).Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if err := design.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndNetworkSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed search is slow")
	}
	// A search whose evaluator mixes synthesis metrics with cycle-based
	// simulation: maximize saturation throughput within a power budget.
	space := noc.NetworkSpace()
	eval := func(pt param.Point) (metrics.Metrics, error) {
		m, err := noc.NetworkEvaluate(space, pt)
		if err != nil {
			return nil, err
		}
		sim, err := noc.DecodeNetwork(space, pt).SimulatePerformance(9)
		if err != nil {
			return nil, err
		}
		m[noc.MetricSatThroughput] = sim[noc.MetricSatThroughput]
		return m, nil
	}
	obj := metrics.MaximizeMetric(noc.MetricSatThroughput).
		Constrained(metrics.AtMost(metrics.PowerMW, 6000))
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space: space, Objective: obj, Evaluate: eval,
		Config: ga.Config{Seed: 2, Generations: 5, PopulationSize: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("no feasible network found")
	}
	m, err := eval(res.BestPoint)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := m.Get(metrics.PowerMW); p > 6000 {
		t.Errorf("power budget violated: %v mW", p)
	}
}

// TestDispatchEquivalenceUnderFaults runs the same supervised FFT search
// on both sides of the engine's dispatch choice - inline lookups at par 1,
// whole-generation batches at par 4 - with 20% of design points injecting
// transient faults: retries absorb the faults inside the evaluation layer,
// so both paths must still produce results identical to each other and to
// the fault-free run.
func TestDispatchEquivalenceUnderFaults(t *testing.T) {
	space := fft.Space()
	obj := metrics.MinimizeMetric(metrics.LUTs)
	base := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		return fft.Evaluate(space, pt)
	}
	run := func(par int, injectFaults bool) ga.Result {
		t.Helper()
		eval := dataset.ContextEvaluator(base)
		if injectFaults {
			inj, err := faulty.NewContext(space, eval, faulty.Config{
				TransientRate:     0.2,
				TransientFailures: 1,
				Seed:              5,
			})
			if err != nil {
				t.Fatal(err)
			}
			eval = inj.Evaluate
		}
		sup, err := resilience.NewSupervisor(space, eval, resilience.Policy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Search(context.Background(), core.SearchRequest{
			Space:       space,
			Objective:   obj,
			EvaluateCtx: sup.Evaluate,
			Config: ga.Config{
				Seed:           3,
				PopulationSize: 8,
				Generations:    25,
				Parallelism:    par,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(4, false)
	inline := run(1, true)
	batch := run(4, true)
	if !reflect.DeepEqual(inline, batch) {
		t.Errorf("dispatch paths disagree under faults:\ninline: %+v\nbatch:  %+v", inline, batch)
	}
	if !reflect.DeepEqual(clean, batch) {
		t.Errorf("supervised faulty run differs from fault-free run:\nclean:  %+v\nfaulty: %+v", clean, batch)
	}
}
