package ga

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// ckptSpace builds a small space with a rugged objective for checkpoint
// tests: enough structure that best/stale/trajectory state all matter.
func ckptSpace(t *testing.T) (*param.Space, metrics.Objective, dataset.Evaluator) {
	t.Helper()
	space, err := param.NewSpace(
		param.Int("a", 0, 15, 1),
		param.Int("b", 0, 15, 1),
		param.Int("c", 0, 7, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(pt param.Point) (metrics.Metrics, error) {
		a, b, c := pt[0], pt[1], pt[2]
		if (a+b+c)%11 == 3 { // scattered infeasible region
			return nil, fmt.Errorf("infeasible")
		}
		v := float64(a*a+b) - 3*float64(c) + float64((a*b)%7)
		return metrics.Metrics{"score": v}, nil
	}
	return space, metrics.MaximizeMetric("score"), eval
}

func ckptConfig(seed int64) Config {
	return Config{
		PopulationSize:    8,
		Generations:       30,
		Seed:              seed,
		Parallelism:       4,
		ConvergenceWindow: 0,
	}
}

// TestResumeByteIdentical kills a run at every possible generation boundary
// (via context cancellation detected mid-generation) and proves the resumed
// run's Result is deeply identical to the uninterrupted run's - trajectory,
// cache counters, best point, everything.
func TestResumeByteIdentical(t *testing.T) {
	space, obj, eval := ckptSpace(t)
	for _, seed := range []int64{1, 7, 42} {
		engine, err := NewContext(space, obj, dataset.AdaptContext(eval), ckptConfig(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := mustRun(t, engine)

		for _, killAfter := range []int{0, 1, 5, 17, 29} {
			// Phase 1: run with checkpointing, cancel once generation
			// killAfter's evaluation begins.
			ctx, cancel := context.WithCancel(context.Background())
			var last *Snapshot
			cfg := ckptConfig(seed)
			cfg.Checkpoint = func(s *Snapshot) error {
				last = s
				if s.Generation > killAfter {
					cancel() // kill mid-search; detected inside evaluate
				}
				return nil
			}
			interruptedEngine, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			partial, err := interruptedEngine.RunContext(ctx)
			cancel()
			if err != nil {
				t.Fatalf("seed %d kill %d: %v", seed, killAfter, err)
			}
			if !partial.Interrupted {
				t.Fatalf("seed %d kill %d: run was not interrupted", seed, killAfter)
			}
			if last == nil {
				t.Fatalf("seed %d kill %d: no checkpoint written", seed, killAfter)
			}

			// Phase 2: resume from the final checkpoint and finish.
			cfg2 := ckptConfig(seed)
			cfg2.Resume = last
			resumedEngine, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg2, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumedEngine.RunContext(context.Background())
			if err != nil {
				t.Fatalf("seed %d kill %d: resume: %v", seed, killAfter, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d kill %d: resumed result differs\n got: %+v\nwant: %+v",
					seed, killAfter, got, want)
			}
		}
	}
}

// TestResumeAfterMidGenerationCancel cancels from inside the evaluator (a
// timeout storm mid-generation), so some of the generation's points are
// evaluated and some are not, then resumes and expects byte-identical
// results: the partially evaluated generation is discarded with its cache
// side effects.
func TestResumeAfterMidGenerationCancel(t *testing.T) {
	space, obj, eval := ckptSpace(t)
	const seed = 11
	engine, err := NewContext(space, obj, dataset.AdaptContext(eval), ckptConfig(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, engine)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killAt := int64(want.DistinctEvals / 2) // guaranteed mid-search
	if killAt < 1 {
		t.Fatalf("run too small to interrupt: %d distinct evals", want.DistinctEvals)
	}
	var calls atomic.Int64
	stormEval := func(pt param.Point) (metrics.Metrics, error) {
		if calls.Add(1) == killAt { // partway through some generation
			cancel()
		}
		return eval(pt)
	}
	var last *Snapshot
	cfg := ckptConfig(seed)
	cfg.CheckpointEvery = 4
	cfg.Checkpoint = func(s *Snapshot) error { last = s; return nil }
	stormEngine, err := NewContext(space, obj, dataset.AdaptContext(stormEval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := stormEngine.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted || last == nil {
		t.Fatalf("interrupted=%v checkpoint=%v", partial.Interrupted, last != nil)
	}

	cfg2 := ckptConfig(seed)
	cfg2.Resume = last
	resumed, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestPeriodicCheckpointsDoNotPerturb proves checkpointing is purely
// observational: a run with per-generation checkpoints returns exactly the
// result of a run without them.
func TestPeriodicCheckpointsDoNotPerturb(t *testing.T) {
	space, obj, eval := ckptSpace(t)
	plainEngine, err := NewContext(space, obj, dataset.AdaptContext(eval), ckptConfig(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, plainEngine)

	cfg := ckptConfig(3)
	cfg.CheckpointEvery = 1
	count := 0
	cfg.Checkpoint = func(s *Snapshot) error { count++; return nil }
	ckptEngine, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckptEngine.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("checkpoint func never called")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed run differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestResumeValidation rejects snapshots that do not belong to the run.
func TestResumeValidation(t *testing.T) {
	space, obj, eval := ckptSpace(t)
	var snap *Snapshot
	cfg := ckptConfig(5)
	// Keep the last snapshot, so snap.Generation is deep in the run and the
	// shrunk-Generations case below stays a real (non-defaulted) config.
	cfg.Checkpoint = func(s *Snapshot) error { snap = s; return nil }
	engine, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	cases := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"wrong seed", func(c Config) Config { c.Seed = 999; return c }},
		{"wrong population", func(c Config) Config { c.PopulationSize = 6; return c }},
		{"too few generations", func(c Config) Config { c.Generations = snap.Generation - 1; return c }},
	}
	for _, tc := range cases {
		cfg2 := tc.mutate(ckptConfig(5))
		cfg2.Resume = snap
		engine2, err := NewContext(space, obj, dataset.AdaptContext(eval), cfg2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine2.RunContext(context.Background()); err == nil {
			t.Errorf("%s: resume accepted", tc.name)
		}
	}
}
