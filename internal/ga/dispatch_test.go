package ga

import (
	"reflect"
	"strings"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
)

// TestDispatchEquivalence is the engine's dispatch contract: a
// generation's misses evaluated on the calling goroutine (Parallelism 1)
// and on pool workers (Parallelism 4) produce identical results - best
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

	serial := run(1)
	if parallel := run(4); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("par=4 run differs from par=1 run\n got: %+v\nwant: %+v", parallel, serial)
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
