package experiments

import (
	"fmt"
	"sync"

	"nautilus/internal/dataset"
	"nautilus/internal/fft"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/search"
	"nautilus/internal/stats"
)

var (
	fftOnce sync.Once
	fftDS   *dataset.Dataset
	fftErr  error
)

// fftDataset enumerates and characterizes the ~11k-point FFT space once per
// process. The first caller's parallelism level drives the build; the
// result is identical at any level.
func fftDataset(par int) (*dataset.Dataset, error) {
	fftOnce.Do(func() {
		s := fft.Space()
		fftDS, fftErr = dataset.BuildParallel(s, func(pt param.Point) (metrics.Metrics, error) {
			return fft.Evaluate(s, pt)
		}, par)
	})
	return fftDS, fftErr
}

// Fig3 reproduces the paper's Figure 3: how the design-solution score (best
// sample's percentile among all feasible designs, 100% = optimum) evolves
// per generation for the baseline GA versus Nautilus using only one or two
// bias hints, averaged over 20 runs. The paper's baseline enters the top 1%
// at generation ~56, the bias-hinted variants at generations 15-23.
func Fig3(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	obj := metrics.MinimizeMetric(metrics.LUTs)

	g1, err := fft.BiasOnlyHints(1).GuidanceForObjective(obj, 0.8)
	if err != nil {
		return nil, err
	}
	g2, err := fft.BiasOnlyHints(2).GuidanceForObjective(obj, 0.8)
	if err != nil {
		return nil, err
	}

	runs, gens := cfg.runs(20), cfg.generations(75)
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "fig3", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"bias1", g1}, variantSpec{"bias2", g2})
	if err != nil {
		return nil, err
	}
	base, one, two := rs[0], rs[1], rs[2]

	// Mean score per generation for each variant. The paper plots a
	// fitness-derived "design solution score (in %)"; here the score of a
	// solution is its value relative to the dataset optimum (100% = the
	// best feasible design).
	_, bestVal := ds.Best(obj)
	meanScore := func(results []runTraj, gen int) float64 {
		sum, n := 0.0, 0
		for _, r := range results {
			if v, ok := r.bestAt(gen); ok && v > 0 {
				sum += 100 * bestVal / v // minimization: optimum/value
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	tb, to, tt := toTraj(base, obj.Worst()), toTraj(one, obj.Worst()), toTraj(two, obj.Worst())

	curve := Table{
		Name:   "fig3_curve",
		Title:  "mean design-solution score (%) per generation",
		Header: []string{"generation", "baseline", "nautilus_1_bias_hint", "nautilus_2_bias_hints"},
	}
	for gen := 0; gen <= gens; gen++ {
		curve.Rows = append(curve.Rows, []string{
			fi(gen), f2(meanScore(tb, gen)), f2(meanScore(to, gen)), f2(meanScore(tt, gen)),
		})
	}

	// Generations to reach the top 1%.
	top1 := ds.Quantile(obj, 0.01)
	genTo := func(results []runTraj) string {
		total, reached := 0, 0
		for _, r := range results {
			for gen := 0; gen <= gens; gen++ {
				if v, ok := r.bestAt(gen); ok && !obj.Better(top1, v) {
					total += gen
					reached++
					break
				}
			}
		}
		if reached == 0 {
			return "never"
		}
		return fmt.Sprintf("%.1f (%d/%d runs)", float64(total)/float64(reached), reached, len(results))
	}

	t := Table{
		Name:   "fig3",
		Title:  "FFT: baseline GA vs Nautilus with only bias hints (paper Figure 3)",
		Header: []string{"variant", "mean generations to top 1%"},
		Rows: [][]string{
			{"baseline", genTo(tb)},
			{"nautilus (1 bias hint)", genTo(to)},
			{"nautilus (2 bias hints)", genTo(tt)},
		},
		Notes: []string{
			"paper: baseline reaches top 1% at generation ~56; 1-2 bias hints at generations 15-23",
			fmt.Sprintf("query: minimize LUTs; top-1%% threshold: %.0f LUTs", top1),
		},
	}
	if cfg.OutDir != "" {
		if err := curve.writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t, curve}, nil
}

// Fig6 reproduces the paper's Figure 6: minimizing FFT LUTs with
// expert-supplied hints. The paper reports the strongly guided engine
// converging on the optimal design in ~101 synthesis runs versus ~463 for
// the baseline; to twice the minimum (the relaxed goal), 23.6 versus 78.9
// runs, where random sampling would need ~11,921.
func Fig6(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	obj := metrics.MinimizeMetric(metrics.LUTs)
	lib := fft.ExpertHints()
	strong, err := lib.GuidanceForObjective(obj, StrongConfidence)
	if err != nil {
		return nil, err
	}
	weak := strong.WithConfidence(WeakConfidence)

	runs, gens := cfg.runs(40), cfg.generations(80)
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "fig6", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"weak", weak}, variantSpec{"strong", strong})
	if err != nil {
		return nil, err
	}
	base, wk, st := rs[0], rs[1], rs[2]

	_, best := ds.Best(obj)
	optTarget := best * 1.005 // "converge on the optimum" with rounding slack
	relaxed := best * 2       // the paper's twice-the-minimum goal

	// Empirical random sampling to the relaxed goal; each draw sequence is
	// seeded per run, so the trials fan out freely.
	type draw struct {
		n  int
		ok bool
	}
	draws, err := pool.Map(cfg.parallelism(), runs, func(i int) (draw, error) {
		n, ok := search.RandomUntil(s, obj, ds.Evaluator(), relaxed,
			ds.Size()+ds.Infeasible(), seedFor("fig6", "random", i))
		return draw{n, ok}, nil
	}, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	randomEvals := make([]float64, 0, runs)
	for _, d := range draws {
		if d.ok {
			randomEvals = append(randomEvals, float64(d.n))
		}
	}

	row := func(name string, rOpt, rRel stats.Reach) []string {
		return []string{name, rOpt.String(), rRel.String()}
	}
	t := Table{
		Name:   "fig6",
		Title:  "FFT: minimize LUTs, expert hints (paper Figure 6)",
		Header: []string{"variant", "evals to optimum", "evals to 2x minimum"},
		Rows: [][]string{
			row("baseline", stats.EvalsToReach(base, obj, optTarget), stats.EvalsToReach(base, obj, relaxed)),
			row("nautilus-weak", stats.EvalsToReach(wk, obj, optTarget), stats.EvalsToReach(wk, obj, relaxed)),
			row("nautilus-strong", stats.EvalsToReach(st, obj, optTarget), stats.EvalsToReach(st, obj, relaxed)),
			{"random sampling", "-", fmt.Sprintf("%.1f evals (%d/%d runs, measured)",
				stats.Mean(randomEvals), len(randomEvals), runs)},
		},
		Notes: []string{
			fmt.Sprintf("optimum: %.0f LUTs; relaxed goal: %.0f LUTs", best, relaxed),
			fmt.Sprintf("analytical random-sampling expectation to 2x-min: %.0f draws (paper: ~11,921)",
				ds.ExpectedRandomDraws(obj, relaxed)),
			"paper: strong 101 vs baseline 463 evals to optimum; 23.6 vs 78.9 to 2x-min",
		},
	}
	curve := curveTable("fig6_curve", "best LUTs vs designs evaluated", obj, base, wk, st, 500)
	if cfg.OutDir != "" {
		if err := curve.writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t, curve}, nil
}

// Fig7 reproduces the paper's Figure 7: maximizing throughput-per-LUT (a
// composite metric) with expert hints. The paper reports the strongly
// guided engine reaching 1.45 MSPS/LUT in ~61.6 runs versus ~501.4 for the
// baseline (>8x), with the baseline never approaching the >1.5 region even
// after exploring >5x more of the space.
func Fig7(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	obj := metrics.ThroughputPerLUT()
	lib := fft.ExpertHints()
	strong, err := lib.Guidance(metrics.Maximize, map[string]float64{"throughput_per_lut": 1}, StrongConfidence)
	if err != nil {
		return nil, err
	}
	weak := strong.WithConfidence(WeakConfidence)

	runs, gens := cfg.runs(40), cfg.generations(80)
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "fig7", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"weak", weak}, variantSpec{"strong", strong})
	if err != nil {
		return nil, err
	}
	base, wk, st := rs[0], rs[1], rs[2]

	_, best := ds.Best(obj)
	mid := best * 0.95  // the paper's 1.45-MSPS/LUT analog
	high := best * 0.99 // the paper's >1.5 analog the baseline never approaches

	mk := func(name string, rMid, rHigh stats.Reach, total, final float64) []string {
		return []string{name, rMid.String(), rHigh.String(), f1(total), f3(final)}
	}
	t := Table{
		Name:   "fig7",
		Title:  "FFT: maximize throughput per LUT, expert hints (paper Figure 7)",
		Header: []string{"variant", "evals to 95% of best", "evals to 99% of best", "mean total evals", "mean final MSPS/LUT"},
		Rows: [][]string{
			mk("baseline", stats.EvalsToReach(base, obj, mid), stats.EvalsToReach(base, obj, high),
				stats.MeanDistinctEvals(base), stats.Mean(stats.FinalValues(base, obj))),
			mk("nautilus-weak", stats.EvalsToReach(wk, obj, mid), stats.EvalsToReach(wk, obj, high),
				stats.MeanDistinctEvals(wk), stats.Mean(stats.FinalValues(wk, obj))),
			mk("nautilus-strong", stats.EvalsToReach(st, obj, mid), stats.EvalsToReach(st, obj, high),
				stats.MeanDistinctEvals(st), stats.Mean(stats.FinalValues(st, obj))),
		},
		Notes: []string{
			fmt.Sprintf("best design: %.3f MSPS/LUT; 95%% target: %.3f; 99%% target: %.3f", best, mid, high),
			"paper: strong reaches 1.45 in 61.6 evals vs baseline 501.4 (>8x); baseline never approaches 1.5",
		},
	}
	curve := curveTable("fig7_curve", "best MSPS/LUT vs designs evaluated", obj, base, wk, st, 500)
	if cfg.OutDir != "" {
		if err := curve.writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t, curve}, nil
}

// runTraj adapts a ga.Result to generation-indexed best values.
type runTraj struct {
	byGen []float64
	worst float64
}

func (r runTraj) bestAt(gen int) (float64, bool) {
	if gen >= len(r.byGen) {
		gen = len(r.byGen) - 1
	}
	if gen < 0 || r.byGen[gen] == r.worst {
		return 0, false
	}
	return r.byGen[gen], true
}

func toTraj(results []ga.Result, worst float64) []runTraj {
	out := make([]runTraj, len(results))
	for i, res := range results {
		vals := make([]float64, len(res.Trajectory))
		for j, gp := range res.Trajectory {
			vals[j] = gp.BestValue
		}
		out[i] = runTraj{byGen: vals, worst: worst}
	}
	return out
}
