package hintcal

import (
	"context"
	"errors"
	"math"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// calSpace: "cost" rises steeply with x, mildly with y, is flat in z, and
// depends on the categorical c as a < b < c means.
func calSpace() (*param.Space, func(param.Point) (metrics.Metrics, error)) {
	s := param.MustSpace(
		param.Int("x", 0, 9, 1),
		param.Int("y", 0, 9, 1),
		param.Int("z", 0, 9, 1),
		param.Choice("c", "beta", "alpha", "gamma"),
	)
	eval := func(pt param.Point) (metrics.Metrics, error) {
		x, y := float64(pt[0]), float64(pt[1])
		catCost := map[string]float64{"alpha": 0, "beta": 30, "gamma": 60}[s.String(pt, "c")]
		return metrics.Metrics{"cost": 5 + 20*x + 2*y + catCost}, nil
	}
	return s, eval
}

func TestEstimateRecoversStructure(t *testing.T) {
	s, eval := calSpace()
	lib, spent, err := Estimate(s, eval, []string{"cost"}, Options{Budget: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spent > 150 {
		t.Errorf("spent %d evaluations, want near budget 120", spent)
	}
	g, err := lib.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	if err != nil {
		t.Fatal(err)
	}
	xi, yi, zi, ci := s.IndexOf("x"), s.IndexOf("y"), s.IndexOf("z"), s.IndexOf("c")

	// Minimizing a metric that rises with x: oriented bias must be negative
	// and strong.
	if b := g.Bias(xi); b > -0.5 {
		t.Errorf("x oriented bias = %v, want strongly negative", b)
	}
	if b := g.Bias(yi); b > -0.3 {
		t.Errorf("y oriented bias = %v, want negative", b)
	}
	// Flat parameter: no (or tiny) bias.
	if b := g.Bias(zi); math.Abs(b) > 0.3 {
		t.Errorf("z oriented bias = %v, want ~0", b)
	}
	// Importance ordering: x should dominate y and z.
	if g.ImportanceAt(xi, 0) <= g.ImportanceAt(yi, 0) {
		t.Errorf("importance x=%v <= y=%v", g.ImportanceAt(xi, 0), g.ImportanceAt(yi, 0))
	}
	if g.ImportanceAt(xi, 0) <= g.ImportanceAt(zi, 0) {
		t.Errorf("importance x=%v <= z=%v", g.ImportanceAt(xi, 0), g.ImportanceAt(zi, 0))
	}
	// Categorical: an induced ordering with a bias should exist.
	if b := g.Bias(ci); b == 0 {
		t.Error("categorical parameter got no induced directional hint")
	}
}

func TestEstimatedHintsAccelerateSearch(t *testing.T) {
	// End-to-end non-expert path: calibrate hints from a small sample, then
	// verify the guided GA reaches quality faster than the baseline.
	s, eval := calSpace()
	obj := metrics.MinimizeMetric("cost")
	lib, _, err := Estimate(s, eval, []string{"cost"}, Options{Budget: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := lib.GuidanceForObjective(obj, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var baseTot, guidedTot int
	for seed := int64(0); seed < 10; seed++ {
		cfg := ga.Config{Seed: seed, Generations: 30}
		be, _ := ga.NewContext(s, obj, dataset.AdaptContext(eval), cfg, nil)
		ge, _ := ga.NewContext(s, obj, dataset.AdaptContext(eval), cfg, g)
		b, err := be.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n, err := ge.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Target: within 10 of optimum 5.
		if e := b.EvalsToReach(obj, 15); e >= 0 {
			baseTot += e
		} else {
			baseTot += 2 * b.DistinctEvals
		}
		if e := n.EvalsToReach(obj, 15); e >= 0 {
			guidedTot += e
		} else {
			guidedTot += 2 * n.DistinctEvals
		}
	}
	if guidedTot >= baseTot {
		t.Errorf("calibrated hints did not accelerate: guided %d vs baseline %d", guidedTot, baseTot)
	}
}

func TestEstimateHandlesInfeasibleRegions(t *testing.T) {
	s, eval := calSpace()
	spiky := func(pt param.Point) (metrics.Metrics, error) {
		if pt[0] == 5 {
			return nil, errors.New("infeasible slice")
		}
		return eval(pt)
	}
	lib, _, err := Estimate(s, spiky, []string{"cost"}, Options{Budget: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := lib.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	if b := g.Bias(s.IndexOf("x")); b > -0.4 {
		t.Errorf("bias under infeasibility = %v, want negative", b)
	}
}

func TestEstimateRejectsNoMetrics(t *testing.T) {
	s, eval := calSpace()
	if _, _, err := Estimate(s, eval, nil, Options{}); err == nil {
		t.Error("expected error with no metrics")
	}
}

func TestEstimateDeterministic(t *testing.T) {
	s, eval := calSpace()
	libA, spentA, _ := Estimate(s, eval, []string{"cost"}, Options{Budget: 100, Seed: 9})
	libB, spentB, _ := Estimate(s, eval, []string{"cost"}, Options{Budget: 100, Seed: 9})
	if spentA != spentB {
		t.Fatal("nondeterministic spend")
	}
	ga1, _ := libA.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	gb1, _ := libB.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	for i := 0; i < s.Len(); i++ {
		if ga1.Bias(i) != gb1.Bias(i) || ga1.ImportanceAt(i, 0) != gb1.ImportanceAt(i, 0) {
			t.Fatalf("param %d hints differ between identical runs", i)
		}
	}
}

func TestRankCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{10, 20, 30, 40, 50}
	down := []float64{50, 40, 30, 20, 10}
	if c := rankCorrelation(xs, up); math.Abs(c-1) > 1e-9 {
		t.Errorf("perfect positive correlation = %v", c)
	}
	if c := rankCorrelation(xs, down); math.Abs(c+1) > 1e-9 {
		t.Errorf("perfect negative correlation = %v", c)
	}
	flat := []float64{7, 7, 7, 7, 7}
	if c := rankCorrelation(xs, flat); c != 0 {
		t.Errorf("flat correlation = %v, want 0", c)
	}
	if c := rankCorrelation(xs[:2], up[:2]); math.Abs(c-1) > 1e-9 {
		t.Errorf("two-point correlation = %v, want sign +1", c)
	}
	if c := rankCorrelation(xs[:1], up[:1]); c != 0 {
		t.Errorf("one-point correlation = %v, want 0", c)
	}
	// Monotone but nonlinear: Spearman should still be 1.
	exp := []float64{1, 4, 9, 100, 10000}
	if c := rankCorrelation(xs, exp); math.Abs(c-1) > 1e-9 {
		t.Errorf("monotone nonlinear correlation = %v, want 1", c)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{3, 1, 3, 2})
	// sorted: 1(r0), 2(r1), 3,3 (ranks 2,3 averaged to 2.5)
	want := []float64{2.5, 0, 2.5, 1}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRelativeSpan(t *testing.T) {
	if s := relativeSpan([]float64{10, 20, 30}); math.Abs(s-1) > 1e-9 {
		t.Errorf("relativeSpan = %v, want 1", s)
	}
	if s := relativeSpan(nil); s != 0 {
		t.Errorf("relativeSpan(nil) = %v", s)
	}
	if s := relativeSpan([]float64{-5, 5}); s != 0 {
		t.Errorf("zero-mean span = %v, want 0 (guarded)", s)
	}
}
