package ga_test

import (
	"context"
	"fmt"

	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// A plain GA search over an IP parameter space: the paper's baseline.
func Example() {
	space := param.MustSpace(
		param.Int("x", 0, 31, 1),
		param.Int("y", 0, 31, 1),
	)
	evaluate := func(_ context.Context, pt param.Point) (metrics.Metrics, error) {
		dx, dy := float64(pt[0]-25), float64(pt[1]-6)
		return metrics.Metrics{"cost": 10 + dx*dx + dy*dy}, nil
	}
	engine, err := ga.NewContext(space, metrics.MinimizeMetric("cost"), evaluate,
		ga.Config{Seed: 4, Generations: 60}, nil) // nil strategy = unguided baseline
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := engine.RunContext(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("best:", res.BestValue, "at", space.Describe(res.BestPoint))
	fmt.Println("cheap:", res.DistinctEvals < 500)
	// Output:
	// best: 10 at x=25 y=6
	// cheap: true
}
