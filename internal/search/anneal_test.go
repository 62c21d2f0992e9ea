package search

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

// annealPlain runs AnnealCtx over a plain evaluator under a background
// context.
func annealPlain(space *param.Space, obj metrics.Objective, eval dataset.Evaluator, cfg AnnealConfig) (ga.Result, error) {
	return AnnealCtx(context.Background(), space, obj, dataset.AdaptContext(eval), cfg)
}

func TestAnnealFindsGoodSolutions(t *testing.T) {
	s, eval := costSpace()
	obj := metrics.MinimizeMetric("cost")
	res, err := annealPlain(s, obj, eval, AnnealConfig{Budget: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("nothing found")
	}
	if res.BestValue > 5 {
		t.Errorf("best cost %v after 250 evals on a convex bowl, want near 0", res.BestValue)
	}
	if res.DistinctEvals > 250 {
		t.Errorf("budget exceeded: %d", res.DistinctEvals)
	}
}

func TestAnnealEscapesLocalOptimum(t *testing.T) {
	// The deceptive 1-D space from the hill-climb test: broad basin at x=3
	// (cost 5), narrow global optimum at x=18 behind a ridge. Annealing's
	// uphill acceptances should find the needle far more often than greedy
	// descent.
	s := param.MustSpace(param.Int("x", 0, 19, 1))
	eval := func(pt param.Point) (metrics.Metrics, error) {
		x := pt[0]
		switch {
		case x == 18:
			return metrics.Metrics{"cost": 0}, nil
		case x >= 15:
			return metrics.Metrics{"cost": 500}, nil
		default:
			d := float64(x - 3)
			return metrics.Metrics{"cost": 5 + d*d}, nil
		}
	}
	obj := metrics.MinimizeMetric("cost")
	found := 0
	for seed := int64(0); seed < 10; seed++ {
		res, err := annealPlain(s, obj, eval, AnnealConfig{Budget: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.BestValue == 0 {
			found++
		}
	}
	if found < 5 {
		t.Errorf("annealing found the needle in only %d/10 runs", found)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	s, eval := costSpace()
	obj := metrics.MinimizeMetric("cost")
	a, err := annealPlain(s, obj, eval, AnnealConfig{Budget: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := annealPlain(s, obj, eval, AnnealConfig{Budget: 100, Seed: 9})
	if a.BestValue != b.BestValue || a.DistinctEvals != b.DistinctEvals {
		t.Error("annealing not deterministic per seed")
	}
}

func TestAnnealSurvivesInfeasible(t *testing.T) {
	s, eval := costSpace()
	spiky := func(pt param.Point) (metrics.Metrics, error) {
		if (pt[0]+pt[1])%3 == 2 {
			return nil, errors.New("stripe")
		}
		return eval(pt)
	}
	res, err := annealPlain(s, metrics.MinimizeMetric("cost"), spiky, AnnealConfig{Budget: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil || math.IsInf(res.BestValue, 0) {
		t.Fatal("no feasible point found through infeasible stripes")
	}
}

func TestAnnealRejectsBadBudget(t *testing.T) {
	s, eval := costSpace()
	if _, err := annealPlain(s, metrics.MinimizeMetric("cost"), eval, AnnealConfig{Budget: 1}); err == nil {
		t.Error("budget 1 accepted")
	}
}

func TestAnnealTrajectoryMonotone(t *testing.T) {
	s, eval := costSpace()
	obj := metrics.MinimizeMetric("cost")
	res, err := annealPlain(s, obj, eval, AnnealConfig{Budget: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, gp := range res.Trajectory {
		if gp.BestValue > prev {
			t.Fatal("best-so-far worsened")
		}
		prev = gp.BestValue
	}
}
