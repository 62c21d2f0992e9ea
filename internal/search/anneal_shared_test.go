package search

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

func annealSpace() (*param.Space, dataset.Evaluator, metrics.Objective) {
	s := param.MustSpace(
		param.Int("a", 0, 15, 1),
		param.Int("b", 0, 15, 1),
		param.Int("c", 0, 7, 1),
	)
	eval := func(pt param.Point) (metrics.Metrics, error) {
		a, b, c := float64(pt[0]), float64(pt[1]), float64(pt[2])
		return metrics.Metrics{"cost": 5 + (a-9)*(a-9) + (b-4)*(b-4) + 2*c}, nil
	}
	return s, eval, metrics.MinimizeMetric("cost")
}

// TestAnnealDeterministicOverSharedHashedCache pins the portfolio layering
// contract: an anneal walk whose evaluator routes through a shared
// hash-keyed dedup cache (the arrangement core.ModePortfolio builds)
// produces results byte-identical to a solo run against the raw evaluator,
// no matter how warm the shared cache already is - memoization must change
// cost accounting only, never the walk.
func TestAnnealDeterministicOverSharedHashedCache(t *testing.T) {
	space, eval, obj := annealSpace()
	cfg := AnnealConfig{Budget: 120, Seed: 9}

	solo, err := annealPlain(space, obj, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var rawCalls atomic.Int64
	counted := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		rawCalls.Add(1)
		return eval(pt)
	}
	shared := dataset.NewCacheContext(space, counted)
	layered, err := AnnealCtx(context.Background(), space, obj, shared.EvaluateCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(layered.BestPoint, solo.BestPoint) ||
		layered.BestValue != solo.BestValue ||
		!reflect.DeepEqual(layered.Trajectory, solo.Trajectory) ||
		layered.DistinctEvals != solo.DistinctEvals {
		t.Fatalf("layered run diverged from solo:\n got %+v\nwant %+v", layered, solo)
	}
	if got := int(rawCalls.Load()); got != solo.DistinctEvals {
		t.Errorf("raw evaluator invoked %d times, want one per distinct point (%d)", got, solo.DistinctEvals)
	}

	// Re-running over the now-warm shared cache: identical walk, zero new
	// raw evaluator work.
	rawCalls.Store(0)
	warm, err := AnnealCtx(context.Background(), space, obj, shared.EvaluateCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.BestPoint, solo.BestPoint) || warm.BestValue != solo.BestValue ||
		!reflect.DeepEqual(warm.Trajectory, solo.Trajectory) {
		t.Fatalf("warm-cache run diverged from solo:\n got %+v\nwant %+v", warm, solo)
	}
	if got := rawCalls.Load(); got != 0 {
		t.Errorf("warm shared cache still invoked the raw evaluator %d times", got)
	}
}

func TestAnnealCtxCancellation(t *testing.T) {
	space, eval, obj := annealSpace()
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	gate := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		evals++
		if evals == 20 {
			cancel()
		}
		return eval(pt)
	}
	res, err := AnnealCtx(ctx, space, obj, gate, AnnealConfig{Budget: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("canceled anneal run should report Interrupted")
	}
	if res.DistinctEvals >= 5000 {
		t.Errorf("cancellation did not stop the walk early: %d evals", res.DistinctEvals)
	}
}
