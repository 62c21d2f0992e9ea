package dataset

import (
	"sync"
	"testing"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

func statSpace(t *testing.T) (*param.Space, Evaluator) {
	t.Helper()
	s := param.MustSpace(param.Int("x", 0, 9, 1))
	eval := func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"cost": float64(pt[0])}, nil
	}
	return s, eval
}

// TestCacheStatsSnapshot checks Stats returns one coherent accounting:
// distinct + hits = total, with the rate derived from the same reads.
func TestCacheStatsSnapshot(t *testing.T) {
	s, eval := statSpace(t)
	c := NewCache(s, eval)
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("fresh cache stats = %+v, want zero", st)
	}
	pts := []int{0, 1, 2, 1, 0, 0, 3, 2} // 4 distinct, 8 queries, 4 hits
	for _, x := range pts {
		if _, err := c.Evaluate(param.Point{x}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	want := CacheStats{Distinct: 4, Total: 8, Hits: 4, HitRate: 0.5}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if st.Distinct != c.DistinctEvaluations() || st.Total != c.TotalQueries() {
		t.Error("Stats disagrees with the individual accessors at rest")
	}
	c.Reset()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("stats after Reset = %+v, want zero", st)
	}
}

// TestCacheDedupTelemetry provokes a deterministic singleflight wait: the
// owner blocks inside the evaluator while a second goroutine looks the
// same point up, counts its dedup wait, and blocks on the owner's result.
// The evaluator is released only once the wait has been observed. The
// cache's own counters are the one record of it: one distinct evaluation
// and one wait, which Stats counts among its hits.
func TestCacheDedupTelemetry(t *testing.T) {
	s := param.MustSpace(param.Int("x", 0, 9, 1))
	inEval := make(chan struct{})
	release := make(chan struct{})
	eval := func(pt param.Point) (metrics.Metrics, error) {
		close(inEval)
		<-release
		return metrics.Metrics{"cost": 1}, nil
	}
	c := NewCache(s, eval)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // owner
		defer wg.Done()
		if _, err := c.Evaluate(param.Point{4}); err != nil {
			t.Error(err)
		}
	}()
	<-inEval
	go func() { // waiter: finds the in-flight entry, counts a dedup wait
		defer wg.Done()
		if _, err := c.Evaluate(param.Point{4}); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.DedupedWaits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dedup wait never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := c.DedupedWaits(); got != 1 {
		t.Errorf("dedup waits = %d, want 1", got)
	}
	st := c.Stats()
	if st.Distinct != 1 || st.Total != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want {1 2 1 0.5}", st)
	}
}
