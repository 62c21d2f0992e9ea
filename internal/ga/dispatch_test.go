package ga

import (
	"reflect"
	"strings"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
)

// TestDispatchEquivalence is the engine's dispatch contract: the inline
// per-point path it takes at Parallelism 1 and the whole-generation batch
// path it takes at higher parallelism produce identical results - best
// point, trajectory, and cache accounting included.
func TestDispatchEquivalence(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	run := func(par int) Result {
		t.Helper()
		e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{
			Seed:           7,
			PopulationSize: 14,
			Generations:    30,
			Parallelism:    par,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e)
	}

	inline := run(1)
	if batch := run(4); !reflect.DeepEqual(inline, batch) {
		t.Errorf("batch path (par=4) differs from inline path (par=1)\n got: %+v\nwant: %+v", batch, inline)
	}
}

// TestNewContextRejectsHugePopulation: a population whose genome arenas
// cannot be allocated is a configuration error, not a panic in the run.
func TestNewContextRejectsHugePopulation(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	for _, pop := range []int{MaxPopulation + 1, 1 << 62} {
		_, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{PopulationSize: pop}, nil)
		if err == nil || !strings.Contains(err.Error(), "population size") {
			t.Errorf("population %d: err = %v, want a population-size error", pop, err)
		}
	}
	if _, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{PopulationSize: MaxPopulation}, nil); err != nil {
		t.Errorf("population at the bound rejected: %v", err)
	}
}
