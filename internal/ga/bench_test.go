package ga

import (
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
)

// BenchmarkRun measures one full baseline GA search over the quadratic toy
// space (80 generations, population 10) - the engine overhead excluding
// real synthesis cost.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	s, eval := quadSpace()
	for i := 0; i < b.N; i++ {
		e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: int64(i)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		mustRun(b, e)
	}
}

// BenchmarkRunParallel measures the same search with 8-way parallel fitness
// evaluation (the paper notes population size caps this parallelism).
func BenchmarkRunParallel(b *testing.B) {
	b.ReportAllocs()
	s, eval := quadSpace()
	for i := 0; i < b.N; i++ {
		e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: int64(i), Parallelism: 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		mustRun(b, e)
	}
}
