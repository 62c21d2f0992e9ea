package experiments

import (
	"fmt"
	"sync"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/hintcal"
	"nautilus/internal/metrics"
	"nautilus/internal/noc"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/stats"
)

var (
	routerOnce sync.Once
	routerDS   *dataset.Dataset
	routerErr  error

	routerHintsOnce sync.Once
	routerHints     *core.Library
	routerHintsErr  error
)

// routerDataset enumerates and characterizes the full ~28k-point router
// space once per process - the stand-in for the paper's offline cluster
// characterization. The first caller's parallelism level drives the build;
// the result is identical at any level.
func routerDataset(par int) (*dataset.Dataset, error) {
	routerOnce.Do(func() {
		s := noc.RouterSpace()
		routerDS, routerErr = dataset.BuildParallel(s, func(pt param.Point) (metrics.Metrics, error) {
			return noc.RouterEvaluate(s, pt)
		}, par)
	})
	return routerDS, routerErr
}

// routerHintLibrary estimates the paper's non-expert NoC hints: ~80
// synthesized designs (<0.3% of the space) swept per-parameter, exactly the
// procedure Section 4.1 describes.
func routerHintLibrary(par int) (*core.Library, error) {
	routerHintsOnce.Do(func() {
		ds, err := routerDataset(par)
		if err != nil {
			routerHintsErr = err
			return
		}
		routerHints, _, routerHintsErr = hintcal.Estimate(
			ds.Space(), ds.Evaluator(),
			[]string{metrics.FmaxMHz, metrics.LUTs},
			hintcal.Options{Budget: 80, Seed: 5},
		)
	})
	return routerHints, routerHintsErr
}

// Fig1 reproduces the paper's Figure 1: the LUT-vs-frequency landscape of
// ~30,000 functionally interchangeable VC router design points. The paper
// plots the raw scatter; the table reports its envelope, and the full
// scatter is written to fig1_scatter.csv when an output directory is set.
func Fig1(cfg Config) ([]Table, error) {
	ds, err := routerDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	var luts, fmax []float64
	scatter := Table{
		Name:   "fig1_scatter",
		Title:  "router design points (LUTs, Fmax)",
		Header: []string{"luts", "fmax_mhz"},
	}
	ds.Each(func(pt param.Point, m metrics.Metrics) bool {
		l, _ := m.Get(metrics.LUTs)
		fx, _ := m.Get(metrics.FmaxMHz)
		luts = append(luts, l)
		fmax = append(fmax, fx)
		scatter.Rows = append(scatter.Rows, []string{f1(l), f1(fx)})
		return true
	})
	sl, sf := stats.Summarize(luts), stats.Summarize(fmax)
	t := Table{
		Name:   "fig1",
		Title:  "VC router design-space landscape (paper Figure 1)",
		Header: []string{"metric", "points", "min", "median", "p95", "max"},
		Rows: [][]string{
			{"area (LUTs)", fi(sl.N), f1(sl.Min), f1(sl.Median), f1(stats.Quantile(luts, 0.95)), f1(sl.Max)},
			{"frequency (MHz)", fi(sf.N), f1(sf.Min), f1(sf.Median), f1(stats.Quantile(fmax, 0.95)), f1(sf.Max)},
		},
		Notes: []string{
			"paper: ~30,000 points spanning roughly 60-200 MHz and up to >20,000 LUTs",
			fmt.Sprintf("measured: %d points (9 parameters varied), full scatter in fig1_scatter.csv", sl.N),
		},
	}
	if cfg.OutDir != "" {
		if err := scatter.writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// Fig2 reproduces the paper's Figure 2: area, power, and peak bisection
// bandwidth of 64-endpoint CONNECT-style NoCs across eight topology
// families on the 65nm ASIC model, demonstrating the 2-3 orders of
// magnitude spread among functionally interchangeable networks.
func Fig2(cfg Config) ([]Table, error) {
	s := noc.NetworkSpace()
	type agg struct {
		n          int
		minA, maxA float64
		minP, maxP float64
		minB, maxB float64
	}
	fams := map[string]*agg{}
	scatter := Table{
		Name:   "fig2_scatter",
		Title:  "network design points",
		Header: []string{"topology", "area_mm2", "power_mw", "bisection_gbps"},
	}
	// Characterize all points concurrently, then aggregate in flat
	// enumeration order so the scatter and family rows stay byte-identical
	// to a sequential sweep.
	points := int(s.Cardinality())
	evals, err := pool.Map(cfg.parallelism(), points, func(i int) (metrics.Metrics, error) {
		return noc.NetworkEvaluate(s, s.PointAt(uint64(i)))
	}, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	for i, m := range evals {
		pt := s.PointAt(uint64(i))
		n := noc.DecodeNetwork(s, pt)
		a := fams[n.Topology]
		if a == nil {
			a = &agg{minA: 1e300, minP: 1e300, minB: 1e300}
			fams[n.Topology] = a
		}
		area, _ := m.Get(metrics.AreaMM2)
		power, _ := m.Get(metrics.PowerMW)
		bw, _ := m.Get(metrics.BisectionGbps)
		a.n++
		a.minA, a.maxA = minf(a.minA, area), maxf(a.maxA, area)
		a.minP, a.maxP = minf(a.minP, power), maxf(a.maxP, power)
		a.minB, a.maxB = minf(a.minB, bw), maxf(a.maxB, bw)
		scatter.Rows = append(scatter.Rows, []string{n.Topology, f2(area), f1(power), f1(bw)})
	}
	t := Table{
		Name:  "fig2",
		Title: "64-endpoint NoC landscape at 65nm by topology family (paper Figure 2)",
		Header: []string{"topology", "configs", "area mm2 (min..max)", "power mW (min..max)",
			"bisection Gbps (min..max)"},
		Notes: []string{
			"paper: families span 2-3 orders of magnitude in area, power, and bandwidth",
		},
	}
	var globalMinB, globalMaxB = 1e300, 0.0
	for _, topo := range noc.Topologies {
		a := fams[topo]
		if a == nil {
			continue
		}
		globalMinB, globalMaxB = minf(globalMinB, a.minB), maxf(globalMaxB, a.maxB)
		t.Rows = append(t.Rows, []string{
			topo, fi(a.n),
			f2(a.minA) + ".." + f2(a.maxA),
			f1(a.minP) + ".." + f1(a.maxP),
			f1(a.minB) + ".." + f1(a.maxB),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured bandwidth spread across families: %.0fx", globalMaxB/globalMinB))
	if cfg.OutDir != "" {
		if err := scatter.writeCSV(cfg.OutDir); err != nil {
			return nil, err
		}
	}
	if err := t.writeCSV(cfg.OutDir); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// Fig4 reproduces the paper's Figure 4: maximizing router frequency with a
// baseline GA versus weakly and strongly guided Nautilus, where the NoC
// hints are non-expert estimates from ~80 synthesized designs. The paper
// reports the baseline needing about 2.8x (vs strong) and 1.8x (vs weak)
// the synthesis jobs to come within 1% of the best solution.
func Fig4(cfg Config) ([]Table, error) {
	ds, err := routerDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	lib, err := routerHintLibrary(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	obj := metrics.MaximizeMetric(metrics.FmaxMHz)
	strong, err := lib.GuidanceForObjective(obj, StrongConfidence)
	if err != nil {
		return nil, err
	}
	weak := strong.WithConfidence(WeakConfidence)

	runs, gens := cfg.runs(40), cfg.generations(80)
	s := ds.Space()
	vres, err := runVariants(cfg, s, obj, ds.Evaluator(), "fig4", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"weak", weak}, variantSpec{"strong", strong})
	if err != nil {
		return nil, err
	}
	base, wk, st := vres[0], vres[1], vres[2]

	_, best := ds.Best(obj)
	target := best * 0.99
	rb := stats.EvalsToReach(base, obj, target)
	rw := stats.EvalsToReach(wk, obj, target)
	rs := stats.EvalsToReach(st, obj, target)

	// The paper's convergence comparison: evaluations needed to match the
	// quality the baseline ends its 80 generations with.
	baseFinal := stats.Mean(stats.FinalValues(base, obj))
	mb := stats.EvalsToReach(base, obj, baseFinal)
	mw := stats.EvalsToReach(wk, obj, baseFinal)
	ms := stats.EvalsToReach(st, obj, baseFinal)

	curve := curveTable("fig4_curve", "best Fmax (MHz) vs designs evaluated",
		obj, base, wk, st, 400)
	t := Table{
		Name:  "fig4",
		Title: "NoC: maximize frequency (paper Figure 4, non-expert hints)",
		Header: []string{"variant", "evals to within 1% of best", "runs reached",
			"evals to baseline-final quality", "mean total evals", "mean final MHz"},
		Rows: [][]string{
			{"baseline", f1(rb.MeanEvals), fmt.Sprintf("%d/%d", rb.Reached, rb.Total),
				mb.String(), f1(stats.MeanDistinctEvals(base)), f1(baseFinal)},
			{"nautilus-weak", f1(rw.MeanEvals), fmt.Sprintf("%d/%d", rw.Reached, rw.Total),
				mw.String(), f1(stats.MeanDistinctEvals(wk)), f1(stats.Mean(stats.FinalValues(wk, obj)))},
			{"nautilus-strong", f1(rs.MeanEvals), fmt.Sprintf("%d/%d", rs.Reached, rs.Total),
				ms.String(), f1(stats.MeanDistinctEvals(st)), f1(stats.Mean(stats.FinalValues(st, obj)))},
		},
		Notes: []string{
			fmt.Sprintf("best design: %.1f MHz; 1%% target: %.1f MHz; baseline-final quality: %.1f MHz",
				best, target, baseFinal),
			fmt.Sprintf("to baseline-final quality - baseline/strong: %s, baseline/weak: %s (paper: ~2.8x / ~1.8x)",
				ratio(mb.MeanEvals, ms.MeanEvals), ratio(mb.MeanEvals, mw.MeanEvals)),
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

// Fig5 reproduces the paper's Figure 5: minimizing the router's area-delay
// product (clock period x LUTs) over 20 generations. This composite query
// merges the frequency hints with the area hints (importance and bias of
// buffer depth and friends), as the paper describes; Nautilus reaches the
// baseline's quality with roughly half the synthesis runs.
func Fig5(cfg Config) ([]Table, error) {
	ds, err := routerDataset(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	lib, err := routerHintLibrary(cfg.parallelism())
	if err != nil {
		return nil, err
	}
	obj := metrics.AreaDelayProduct()
	// Area-delay rises with LUTs and falls with Fmax, so the compiled
	// guidance weights LUT hints positively and frequency hints negatively.
	guid, err := lib.Guidance(metrics.Minimize, map[string]float64{
		metrics.LUTs:    1,
		metrics.FmaxMHz: -1,
	}, 0.7)
	if err != nil {
		return nil, err
	}

	runs, gens := cfg.runs(40), cfg.generations(20)
	s := ds.Space()
	rs, err := runVariants(cfg, s, obj, ds.Evaluator(), "fig5", runs, gens,
		variantSpec{"baseline", nil}, variantSpec{"nautilus", guid})
	if err != nil {
		return nil, err
	}
	base, naut := rs[0], rs[1]

	_, best := ds.Best(obj)
	// With only 20 generations (the paper's Figure 5 budget), quality is
	// compared at the baseline's final level: Nautilus should get there
	// with roughly half the synthesis runs.
	baseFinal := stats.Mean(stats.FinalValues(base, obj))
	rb := stats.EvalsToReach(base, obj, baseFinal)
	rn := stats.EvalsToReach(naut, obj, baseFinal)
	curve := curveTable("fig5_curve", "best area-delay product vs designs evaluated",
		obj, base, naut, nil, 100)
	t := Table{
		Name:  "fig5",
		Title: "NoC: minimize area-delay product (paper Figure 5)",
		Header: []string{"variant", "evals to baseline-final quality", "runs reached",
			"mean total evals", "mean final ADP"},
		Rows: [][]string{
			{"baseline", f1(rb.MeanEvals), fmt.Sprintf("%d/%d", rb.Reached, rb.Total),
				f1(stats.MeanDistinctEvals(base)), f1(baseFinal)},
			{"nautilus", f1(rn.MeanEvals), fmt.Sprintf("%d/%d", rn.Reached, rn.Total),
				f1(stats.MeanDistinctEvals(naut)), f1(stats.Mean(stats.FinalValues(naut, obj)))},
		},
		Notes: []string{
			fmt.Sprintf("best ADP in space: %.1f (period ns x LUTs); baseline-final quality: %.1f", best, baseFinal),
			fmt.Sprintf("baseline/nautilus evals ratio: %s (paper: ~2x - 'about half the synthesis runs')",
				ratio(rb.MeanEvals, rn.MeanEvals)),
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

// curveTable resamples up to three run sets onto a shared evaluation grid.
// The third set may be nil (two-line figures).
func curveTable(name, title string, obj metrics.Objective, a, b, c []ga.Result, maxEvals int) Table {
	grid := stats.EvalGrid(maxEvals, 40)
	ca := stats.AverageTrajectories(a, obj, grid)
	cb := stats.AverageTrajectories(b, obj, grid)
	var cc stats.Curve
	header := []string{"evals", "baseline", "nautilus_weak", "nautilus_strong"}
	if c == nil {
		header = []string{"evals", "baseline", "nautilus"}
	} else {
		cc = stats.AverageTrajectories(c, obj, grid)
	}
	t := Table{Name: name, Title: title, Header: header}
	at := func(curve stats.Curve, x int) string {
		for _, cp := range curve {
			if cp.X == x {
				return f3(cp.Y)
			}
		}
		return ""
	}
	for _, x := range grid {
		row := []string{fi(x), at(ca, x), at(cb, x)}
		if c != nil {
			row = append(row, at(cc, x))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
