package dataset

import (
	"sync"
	"testing"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
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

// TestCacheTelemetryEvents checks each lookup reports exactly one hit or
// miss event (dedup requires contention, covered below) carrying a valid
// shard index.
func TestCacheTelemetryEvents(t *testing.T) {
	s, eval := statSpace(t)
	c := NewCache(s, eval)
	col := telemetry.NewCollector(nil)
	c.SetTracer(trace.New(trace.Config{Sinks: []trace.Sink{col}}))
	for _, x := range []int{5, 5, 6, 5} {
		if _, err := c.Evaluate(param.Point{x}); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Registry().Snapshot()
	if got := snap.Counters[telemetry.MetricCacheMisses]; got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := snap.Counters[telemetry.MetricCacheHits]; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	// A nil stream must restore the free default, not panic.
	c.SetTracer(nil)
	if _, err := c.Evaluate(param.Point{7}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDedupTelemetry provokes a deterministic singleflight wait: the
// owner blocks inside the evaluator while a second goroutine looks the
// same point up, records its dedup event, and blocks on the owner's
// result. The evaluator is released only once the wait has been observed.
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
	col := telemetry.NewCollector(nil)
	c.SetTracer(trace.New(trace.Config{Sinks: []trace.Sink{col}}))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // owner
		defer wg.Done()
		if _, err := c.Evaluate(param.Point{4}); err != nil {
			t.Error(err)
		}
	}()
	<-inEval
	go func() { // waiter: finds the in-flight entry, records a dedup wait
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

	snap := col.Registry().Snapshot()
	if got := snap.Counters[telemetry.MetricCacheMisses]; got != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", got)
	}
	if got := snap.Counters[telemetry.MetricCacheDedups]; got != 1 {
		t.Errorf("dedup events = %d, want 1", got)
	}
	if got := snap.Counters[telemetry.MetricCacheHits]; got != 0 {
		t.Errorf("hits = %d, want 0", got)
	}
	st := c.Stats()
	if st.Distinct != 1 || st.Total != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want {1 2 1 0.5}", st)
	}
}
