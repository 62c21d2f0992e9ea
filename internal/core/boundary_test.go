package core_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// TestCanceledCheckpointIsBoundary: a run canceled partway through
// generation g hands its hook a final snapshot that renders byte for byte
// as the generation-g snapshot of the same run checkpointed at every
// boundary. The engine builds that final snapshot only after the cancel,
// from the cache mark it took at g's boundary, so this pins the mark's
// counters and its completion-stamp filter: the points g evaluated before
// the cut (all of them, when the cut is g's last evaluation) are in the
// cache but not in the snapshot. Cut points are the first, middle and
// last evaluation of two generations, at parallelism 1 and 4, for every
// golden case (scalar and pareto).
func TestCanceledCheckpointIsBoundary(t *testing.T) {
	for _, gc := range goldenCases(t) {
		for _, par := range []int{1, 4} {
			gc, par := gc, par
			t.Run(fmt.Sprintf("%s/par=%d", gc.name, par), func(t *testing.T) {
				eval := dataset.AdaptContext(gc.entry.Eval)
				boundary := map[int][]byte{}
				distinct := map[int]int64{}
				cfg := goldenCfg(1, par)
				cfg.Checkpoint = func(s *ga.Snapshot) error {
					boundary[s.Generation] = goldenJSON(t, s)
					distinct[s.Generation] = s.Cache.Distinct
					return nil
				}
				gc.search(t, cfg, eval)

				// Generation g's evaluator calls are numbered
				// distinct[g]+1 .. distinct[g+1]: every distinct point costs
				// one call, and generations run one after another.
				var gens []int
				for g := 1; g < cfg.Generations; g++ {
					if distinct[g+1]-distinct[g] >= 3 {
						gens = append(gens, g)
					}
				}
				if len(gens) < 2 {
					t.Fatalf("too few generations with 3+ misses: %v", gens)
				}
				for _, g := range []int{gens[0], gens[len(gens)-1]} {
					misses := distinct[g+1] - distinct[g]
					for _, k := range []int64{1, (misses + 1) / 2, misses} {
						snaps := cancelAt(t, gc, par, eval, distinct[g]+k)
						if len(snaps) != 1 {
							t.Fatalf("gen %d cut %d/%d: hook called %d times, want once", g, k, misses, len(snaps))
						}
						if got := snaps[0]; !bytes.Equal(got, boundary[g]) {
							t.Errorf("gen %d cut %d/%d: final checkpoint differs from the boundary's:\n%s",
								g, k, misses, firstDiff(got, boundary[g]))
						}
					}
				}
			})
		}
	}
}

// cancelAt runs gc with a hook that never comes due and cancels the run
// from inside its call-th evaluator call, returning the snapshots the hook
// received (rendered).
func cancelAt(t *testing.T, gc goldenCase, par int, eval dataset.ContextEvaluator, call int64) [][]byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cut := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		if calls.Add(1) == call {
			cancel()
		}
		return eval(ctx, pt)
	}
	var snaps [][]byte
	cfg := goldenCfg(1, par)
	cfg.Checkpoint, cfg.CheckpointEvery = func(s *ga.Snapshot) error {
		snaps = append(snaps, goldenJSON(t, s))
		return nil
	}, 1000
	res, err := core.Search(ctx, gc.request(cfg, cut), core.WithGuidance(gc.guidance))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatalf("run canceled at evaluator call %d was not interrupted", call)
	}
	return snaps
}

// TestIdleCheckpointHookAllocs: a checkpoint hook that never comes due
// costs a run nothing. At a boundary that is not due the engine records
// an O(1) cache mark and builds no snapshot - no export, no population or
// trajectory copy - so each golden search with a hook at CheckpointEvery
// 1000 allocates within 1% of the same search without one, in bytes and
// in allocations per run.
func TestIdleCheckpointHookAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, gc := range goldenCases(t) {
		eval := dataset.AdaptContext(gc.entry.Eval)
		search := func(hooked bool) func() {
			cfg := goldenCfg(1, 1)
			if hooked {
				cfg.Checkpoint, cfg.CheckpointEvery = func(*ga.Snapshot) error { return nil }, 1000
			}
			return func() { gc.search(t, cfg, eval) }
		}
		plainBytes, plainAllocs := allocsPerRun(search(false))
		hookBytes, hookAllocs := allocsPerRun(search(true))
		if hookBytes > 1.01*plainBytes || hookAllocs > 1.01*plainAllocs {
			t.Errorf("%s: an idle hook costs %.0f B and %.0f allocs per run, against %.0f B and %.0f allocs without one",
				gc.name, hookBytes, hookAllocs, plainBytes, plainAllocs)
		}
	}
}

// allocsPerRun reports fn's heap bytes and allocations per call: after a
// warm-up call, the least mean over three rounds of 20 calls, measured like
// testing.AllocsPerRun with one P so other goroutines add little.
func allocsPerRun(fn func()) (heap, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	const runs = 20
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / runs
		n := float64(after.Mallocs-before.Mallocs) / runs
		if round == 0 || b < heap {
			heap = b
		}
		if round == 0 || n < allocs {
			allocs = n
		}
	}
	return heap, allocs
}
