package experiments

import (
	"context"
	"fmt"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/fft"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/pool"
	"nautilus/internal/stats"
)

// Ablations studies the design choices DESIGN.md calls out, on the FFT
// min-LUT query:
//
//   - confidence sweep: 0 (baseline-equivalent) to 0.95 (near-directed);
//   - hint classes in isolation: importance-only, bias-only, target-like
//     (full expert), and combined;
//   - importance decay on versus off;
//   - adversarial (sign-flipped) bias hints: the stochastic core must
//     degrade gracefully, not break (the paper's Section 3 requirement).
func Ablations(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	obj := metrics.MinimizeMetric(metrics.LUTs)
	_, best := ds.Best(obj)
	relaxed := best * 2
	runs, gens := cfg.runs(40), cfg.generations(80)

	measure := func(name string, g *core.Guidance) ([]string, error) {
		results, err := runGA(s, obj, ds.Evaluator(), g, "ablation", name, runs, gens, cfg.parallelism(), cfg.Tracer)
		if err != nil {
			return nil, err
		}
		r := stats.EvalsToReach(results, obj, relaxed)
		final := stats.Mean(stats.FinalValues(results, obj))
		return []string{name, r.String(), f1(final)}, nil
	}

	header := []string{"variant", "evals to 2x minimum", "mean final LUTs"}

	// Confidence sweep.
	conf := Table{
		Name:   "ablation_confidence",
		Title:  "confidence sweep (FFT min LUTs, full expert hints)",
		Header: header,
		Notes:  []string{"confidence 0 must match baseline behaviour; high confidence approaches directed search"},
	}
	lib := fft.ExpertHints()
	for _, c := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95} {
		g, err := lib.GuidanceForObjective(obj, c)
		if err != nil {
			return nil, err
		}
		row, err := measure(fmt.Sprintf("confidence=%.2f", c), g)
		if err != nil {
			return nil, err
		}
		conf.Rows = append(conf.Rows, row)
	}

	// Hint classes.
	classes := Table{
		Name:   "ablation_hint_classes",
		Title:  "hint classes in isolation (FFT min LUTs, confidence 0.9)",
		Header: header,
	}
	{
		row, err := measure("none (baseline)", nil)
		if err != nil {
			return nil, err
		}
		classes.Rows = append(classes.Rows, row)

		impOnly := core.NewLibrary(s)
		impOnly.Metric(metrics.LUTs).
			SetImportance(fft.ParamDataWidth, 90, 0).
			SetImportance(fft.ParamStreamWidth, 80, 0).
			SetImportance(fft.ParamArch, 70, 0)
		gImp, err := impOnly.GuidanceForObjective(obj, StrongConfidence)
		if err != nil {
			return nil, err
		}
		if row, err = measure("importance only", gImp); err != nil {
			return nil, err
		}
		classes.Rows = append(classes.Rows, row)

		gBias, err := fft.BiasOnlyHints(2).GuidanceForObjective(obj, StrongConfidence)
		if err != nil {
			return nil, err
		}
		if row, err = measure("2 bias hints only", gBias); err != nil {
			return nil, err
		}
		classes.Rows = append(classes.Rows, row)

		gFull, err := lib.GuidanceForObjective(obj, StrongConfidence)
		if err != nil {
			return nil, err
		}
		if row, err = measure("full expert hints", gFull); err != nil {
			return nil, err
		}
		classes.Rows = append(classes.Rows, row)
	}

	// Importance decay on/off.
	decay := Table{
		Name:   "ablation_decay",
		Title:  "importance decay (FFT min LUTs, importance-heavy hints, confidence 0.9)",
		Header: header,
		Notes:  []string{"without decay, extreme importance skew can starve late fine-tuning of unhinted parameters"},
	}
	for _, d := range []struct {
		name string
		rate float64
	}{{"decay off", 0}, {"decay 0.05", 0.05}, {"decay 0.15", 0.15}} {
		libD := core.NewLibrary(s)
		libD.Metric(metrics.LUTs).
			SetImportance(fft.ParamDataWidth, 100, d.rate).SetBias(fft.ParamDataWidth, 0.9).
			SetImportance(fft.ParamStreamWidth, 100, d.rate).SetBias(fft.ParamStreamWidth, 0.8)
		g, err := libD.GuidanceForObjective(obj, StrongConfidence)
		if err != nil {
			return nil, err
		}
		row, err := measure(d.name, g)
		if err != nil {
			return nil, err
		}
		decay.Rows = append(decay.Rows, row)
	}

	// Adversarial hints.
	wrong := Table{
		Name:   "ablation_wrong_hints",
		Title:  "adversarial hints (FFT min LUTs): sign-flipped biases",
		Header: header,
		Notes:  []string{"hints are probabilistic, so wrong guidance slows but must not break the search (paper Section 3)"},
	}
	{
		row, err := measure("baseline", nil)
		if err != nil {
			return nil, err
		}
		wrong.Rows = append(wrong.Rows, row)

		libW := core.NewLibrary(s)
		libW.Metric(metrics.LUTs).
			SetBias(fft.ParamDataWidth, -0.9). // backwards on purpose
			SetBias(fft.ParamStreamWidth, -0.8).
			SetBias(fft.ParamArch, -0.7)
		for _, c := range []float64{0.4, 0.9} {
			g, err := libW.GuidanceForObjective(obj, c)
			if err != nil {
				return nil, err
			}
			row, err := measure(fmt.Sprintf("wrong hints, confidence=%.1f", c), g)
			if err != nil {
				return nil, err
			}
			wrong.Rows = append(wrong.Rows, row)
		}
	}

	gaParams, err := gaParamTable(cfg, ds, obj, relaxed)
	if err != nil {
		return nil, err
	}

	tables := []Table{conf, classes, decay, wrong, *gaParams}
	for i := range tables {
		if err := tables[i].writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// gaParamTable sweeps the GA's own knobs (selection scheme, crossover
// operator, population size, mutation rate) on the baseline engine - the
// sensitivity the paper's Section 2 background discusses.
func gaParamTable(cfg Config, ds *dataset.Dataset, obj metrics.Objective, relaxed float64) (*Table, error) {
	s := ds.Space()
	runs, gens := cfg.runs(40), cfg.generations(80)
	t := &Table{
		Name:   "ablation_ga_params",
		Title:  "GA parameter sensitivity (baseline engine, FFT min LUTs)",
		Header: []string{"configuration", "evals to 2x minimum", "mean final LUTs"},
		Notes: []string{
			"paper Section 2: population size caps parallelism; mutation rate balances exploration vs exploitation",
		},
	}
	variants := []struct {
		name string
		mod  func(*ga.Config)
	}{
		{"defaults (pop 10, mut 0.1, roulette, 1-point)", func(*ga.Config) {}},
		{"tournament selection", func(c *ga.Config) { c.Selection = ga.SelectTournament }},
		{"uniform crossover", func(c *ga.Config) { c.Crossover = ga.CrossoverUniform }},
		{"two-point crossover", func(c *ga.Config) { c.Crossover = ga.CrossoverTwoPoint }},
		{"population 30", func(c *ga.Config) { c.PopulationSize = 30 }},
		{"mutation 0.02 (exploit)", func(c *ga.Config) { c.MutationRate = 0.02 }},
		{"mutation 0.4 (explore)", func(c *ga.Config) { c.MutationRate = 0.4 }},
	}
	for _, v := range variants {
		results, err := pool.Map(cfg.parallelism(), runs, func(i int) (ga.Result, error) {
			gcfg := ga.Config{Seed: seedFor("ablation_ga", v.name, i), Generations: gens, Tracer: cfg.Tracer}
			v.mod(&gcfg)
			engine, err := ga.NewContext(s, obj, dataset.AdaptContext(ds.Evaluator()), gcfg, nil)
			if err != nil {
				return ga.Result{}, err
			}
			return engine.RunContext(context.Background())
		}, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			stats.EvalsToReach(results, obj, relaxed).String(),
			f1(stats.Mean(stats.FinalValues(results, obj))),
		})
	}
	return t, nil
}
