package ga

import (
	"reflect"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
)

// TestRunParallelismDeterministic checks the engine's core guarantee: a run
// with parallel fitness evaluation is indistinguishable from a sequential
// one - same best point, same trajectory, same distinct-evaluation counts.
func TestRunParallelismDeterministic(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	run := func(par int) Result {
		e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: 42, Generations: 30, Parallelism: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e)
	}
	seq := run(1)
	for _, par := range []int{2, 4, 16} {
		got := run(par)
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("Parallelism=%d result diverges from sequential:\n got %+v\nwant %+v", par, got, seq)
		}
	}
}
