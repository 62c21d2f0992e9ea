package dataset

import (
	"context"
	"testing"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// benchmarkCache builds a warm cache with a batch of distinct points
// already memoized - the steady state of a converged GA where nearly every
// dispatch is a cache hit.
func benchmarkCache(b *testing.B, n int) (*Cache, []param.Point) {
	b.Helper()
	space, eval := toySpace()
	c := NewCache(space, eval)
	pts := make([]param.Point, n)
	for i := range pts {
		// Stride modulo cardinality-1 keeps clear of the infeasible corner.
		pts[i] = space.PointAt(uint64(i*37) % (space.Cardinality() - 1))
	}
	if _, _, err := evalBatch(c, context.Background(), nil, pts, 1); err != nil {
		b.Fatal(err)
	}
	return c, pts
}

func BenchmarkPointLookupWarm(b *testing.B) {
	c, pts := benchmarkCache(b, 32)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			if _, err := c.EvaluateCtx(ctx, pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchLookupWarm(b *testing.B) {
	c, pts := benchmarkCache(b, 32)
	ctx := context.Background()
	ms := make([]metrics.Metrics, len(pts))
	errs := make([]error, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EvaluateBatchCtx(ctx, nil, pts, ms, errs, 1); err != nil {
			b.Fatal(err)
		}
	}
}
