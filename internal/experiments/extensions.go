package experiments

import (
	"fmt"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/fft"
	"nautilus/internal/ga"
	"nautilus/internal/gemm"
	"nautilus/internal/metrics"
	"nautilus/internal/netsim"
	"nautilus/internal/noc"
	"nautilus/internal/param"
	"nautilus/internal/pareto"
	"nautilus/internal/pool"
	"nautilus/internal/search"
	"nautilus/internal/stats"
)

// ExtensionBaselines compares Nautilus against the broader family of
// search baselines the paper's related-work section situates it among:
// uniform random sampling, greedy hill climbing, and simulated annealing,
// alongside the baseline GA - all under the same distinct-evaluation cost
// accounting, on the FFT minimize-LUTs query.
func ExtensionBaselines(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	obj := metrics.MinimizeMetric(metrics.LUTs)
	_, best := ds.Best(obj)
	relaxed := best * 2
	runs := cfg.runs(40)
	gens := cfg.generations(80)
	budget := 500

	collect := func(variant string, run func(seed int64) (ga.Result, error)) ([]ga.Result, error) {
		return pool.Map(cfg.parallelism(), runs, func(i int) (ga.Result, error) {
			return run(seedFor("ext_baselines", variant, i))
		}, cfg.Tracer)
	}

	random, err := collect("random", func(seed int64) (ga.Result, error) {
		return search.Random(s, obj, ds.Evaluator(), budget, seed)
	})
	if err != nil {
		return nil, err
	}
	climb, err := collect("hillclimb", func(seed int64) (ga.Result, error) {
		return search.HillClimb(s, obj, ds.Evaluator(), budget, seed)
	})
	if err != nil {
		return nil, err
	}
	annealed, err := collect("anneal", func(seed int64) (ga.Result, error) {
		return search.Anneal(s, obj, ds.Evaluator(), search.AnnealConfig{Budget: budget, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	strongG, err := fft.ExpertHints().GuidanceForObjective(obj, StrongConfidence)
	if err != nil {
		return nil, err
	}
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "ext_baselines", runs, gens,
		variantSpec{"ga", nil}, variantSpec{"nautilus", strongG})
	if err != nil {
		return nil, err
	}
	base, naut := rs[0], rs[1]

	row := func(name string, results []ga.Result) []string {
		return []string{
			name,
			stats.EvalsToReach(results, obj, relaxed).String(),
			f1(stats.Mean(stats.FinalValues(results, obj))),
			f1(stats.MeanDistinctEvals(results)),
		}
	}
	t := Table{
		Name:   "ext_baselines",
		Title:  "extension: Nautilus vs the wider metaheuristic family (FFT min LUTs)",
		Header: []string{"method", "evals to 2x minimum", "mean final LUTs", "mean total evals"},
		Rows: [][]string{
			row("random sampling", random),
			row("hill climbing", climb),
			row("simulated annealing", annealed),
			row("baseline GA", base),
			row("nautilus (strong)", naut),
		},
		Notes: []string{
			fmt.Sprintf("optimum %.0f LUTs; relaxed goal %.0f; random/hill/anneal budget %d evals", best, relaxed, budget),
		},
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// ExtensionPareto examines the FFT space's area-throughput Pareto front
// (the object the related-work active-learning systems model) and measures
// how close Nautilus's single-query answers land to it.
func ExtensionPareto(cfg Config) ([]Table, error) {
	ds, err := fftDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	s := ds.Space()
	objs := []metrics.Objective{
		metrics.MinimizeMetric(metrics.LUTs),
		metrics.MaximizeMetric(metrics.ThroughputMSPS),
	}
	front, err := pareto.Front(ds, objs)
	if err != nil {
		return nil, err
	}
	worstLUTs := ds.Quantile(objs[0], 1)
	hv, err := pareto.Hypervolume2D([2]metrics.Objective{objs[0], objs[1]}, front, [2]float64{worstLUTs * 1.01, 0})
	if err != nil {
		return nil, err
	}

	t := Table{
		Name:   "ext_pareto",
		Title:  "extension: FFT area-throughput Pareto front",
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"feasible designs", fi(ds.Size())},
			{"Pareto-optimal designs", fi(len(front))},
			{"front hypervolume (ref: worst area, zero throughput)", fmt.Sprintf("%.4g", hv)},
			{"cheapest front point", fmt.Sprintf("%.0f LUTs @ %.0f MSPS", front[0].Values[0], front[0].Values[1])},
			{"fastest front point", fmt.Sprintf("%.0f LUTs @ %.0f MSPS",
				front[len(front)-1].Values[0], front[len(front)-1].Values[1])},
		},
	}

	// How close do single-objective Nautilus answers land to the front?
	lib := fft.ExpertHints()
	for _, q := range []struct {
		name    string
		obj     metrics.Objective
		weights map[string]float64
	}{
		{"min LUTs", metrics.MinimizeMetric(metrics.LUTs), nil},
		{"max throughput/LUT", metrics.ThroughputPerLUT(), map[string]float64{"throughput_per_lut": 1}},
	} {
		var g *core.Guidance
		var err error
		if q.weights != nil {
			g, err = lib.Guidance(q.obj.Direction(), q.weights, StrongConfidence)
		} else {
			g, err = lib.GuidanceForObjective(q.obj, StrongConfidence)
		}
		if err != nil {
			return nil, err
		}
		res, err := runGA(s, q.obj, ds.Evaluator(), g, "ext_pareto", q.name, 1, cfg.generations(80), cfg.parallelism(), cfg.Tracer)
		if err != nil {
			return nil, err
		}
		if res[0].BestPoint == nil {
			continue
		}
		m, _ := ds.Lookup(res[0].BestPoint)
		l, _ := objs[0].Value(m)
		tp, _ := objs[1].Value(m)
		dist := pareto.DistanceToFront(front, []float64{l, tp})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("nautilus '%s' answer vs front", q.name),
			fmt.Sprintf("%.0f LUTs @ %.0f MSPS, gap %.1f%%", l, tp, 100*dist),
		})
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// ExtensionSimVsAnalytical cross-validates the two characterization
// substrates: the analytical bisection-bandwidth model used for Figure 2
// against measured saturation throughput from the cycle-based wormhole
// simulator, across the simulatable topology families.
func ExtensionSimVsAnalytical(cfg Config) ([]Table, error) {
	s := noc.NetworkSpace()
	t := Table{
		Name:  "ext_sim_vs_analytical",
		Title: "extension: analytical bisection bandwidth vs simulated saturation (64 endpoints)",
		Header: []string{"topology", "analytical bisection (Gbps)", "simulated saturation (flits/node/cyc)",
			"zero-load latency (cyc)"},
	}
	type pair struct{ analytical, simulated float64 }
	topos := []string{
		netsim.TopoRing, netsim.TopoConcRing, netsim.TopoDoubleRing,
		netsim.TopoConcDoubleRing, netsim.TopoMesh, netsim.TopoTorus, netsim.TopoFatTree,
	}
	type simRow struct {
		bw, sat, lat float64
	}
	// Each topology's simulation is independent and internally seeded, so
	// the sweep fans out; rows are assembled in topology order afterwards.
	rows, err := pool.Map(cfg.parallelism(), len(topos), func(i int) (simRow, error) {
		pt := make([]int, s.Len())
		ptP := s.Set(pt, noc.ParamTopology, topos[i])
		ptP = s.Set(ptP, noc.ParamVCs, "2")
		ptP = s.Set(ptP, noc.ParamBufDepth, "4")
		ptP = s.Set(ptP, noc.ParamFlitWidth, "64")
		n := noc.DecodeNetwork(s, ptP)
		analytical, err := noc.NetworkEvaluate(s, ptP)
		if err != nil {
			return simRow{}, err
		}
		sim, err := n.SimulatePerformance(13)
		if err != nil {
			return simRow{}, err
		}
		bw, _ := analytical.Get(metrics.BisectionGbps)
		sat, _ := sim.Get(noc.MetricSatThroughput)
		lat, _ := sim.Get(noc.MetricZeroLoadLatency)
		return simRow{bw, sat, lat}, nil
	}, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	var pairs []pair
	for i, r := range rows {
		pairs = append(pairs, pair{r.bw, r.sat})
		t.Rows = append(t.Rows, []string{topos[i], f1(r.bw), f3(r.sat), f1(r.lat)})
	}
	// Rank agreement between the two substrates.
	agree, total := 0, 0
	for i := range pairs {
		for j := i + 1; j < len(pairs); j++ {
			if pairs[i].analytical == pairs[j].analytical {
				continue
			}
			total++
			if (pairs[i].analytical < pairs[j].analytical) == (pairs[i].simulated < pairs[j].simulated) {
				agree++
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pairwise rank agreement between substrates: %d/%d", agree, total))
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// ExtensionThirdIP runs the generality study: the same Nautilus machinery
// applied to a third, independently built IP generator (the systolic GEMM
// accelerator), on a composite efficiency query. The paper's claim is that
// Nautilus provides IP-agnostic infrastructure; this measures it.
func ExtensionThirdIP(cfg Config) ([]Table, error) {
	s := gemm.Space()
	ds, err := dataset.BuildParallel(s, func(pt param.Point) (metrics.Metrics, error) {
		return gemm.Evaluate(s, pt)
	}, cfg.parallelism())
	if err != nil {
		return nil, err
	}
	obj := metrics.MaximizeDerived("gmacs_per_lut", metrics.Ratio(gemm.MetricGMACS, metrics.LUTs))
	strong, err := gemm.ExpertHints().Guidance(metrics.Maximize, map[string]float64{
		gemm.MetricEfficiency: 1,
	}, StrongConfidence)
	if err != nil {
		return nil, err
	}
	weak := strong.WithConfidence(WeakConfidence)

	runs, gens := cfg.runs(40), cfg.generations(80)
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "ext_thirdip", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"weak", weak}, variantSpec{"strong", strong})
	if err != nil {
		return nil, err
	}
	base, wk, st := rs[0], rs[1], rs[2]
	_, best := ds.Best(obj)
	target := best * 0.95
	row := func(name string, results []ga.Result) []string {
		return []string{
			name,
			stats.EvalsToReach(results, obj, target).String(),
			f1(stats.MeanDistinctEvals(results)),
			fmt.Sprintf("%.4g", stats.Mean(stats.FinalValues(results, obj))),
		}
	}
	t := Table{
		Name:   "ext_thirdip",
		Title:  "extension: generality on a third IP (systolic GEMM, max GMACs/LUT)",
		Header: []string{"variant", "evals to 95% of best", "mean total evals", "mean final GMACs/LUT"},
		Rows: [][]string{
			row("baseline", base),
			row("nautilus-weak", wk),
			row("nautilus-strong", st),
		},
		Notes: []string{
			fmt.Sprintf("space: %d points (%d feasible); best %.4g GMACs/LUT",
				s.Cardinality(), ds.Size(), best),
		},
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}
