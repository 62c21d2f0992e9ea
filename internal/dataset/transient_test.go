package dataset

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// flakyEval fails each point's first `failures` evaluations with a
// transient error, then succeeds.
func flakyEval(s *param.Space, failures int) (ContextEvaluator, *atomic.Int64) {
	var calls atomic.Int64
	var mu sync.Mutex
	seen := map[string]int{}
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		calls.Add(1)
		key := s.Key(pt)
		mu.Lock()
		seen[key]++
		n := seen[key]
		mu.Unlock()
		if n <= failures {
			return nil, MarkTransient(fmt.Errorf("flaky call %d at %s", n, key))
		}
		return metrics.Metrics{"cost": float64(pt[0])}, nil
	}
	return eval, &calls
}

// TestCacheTransientNotMemoized is the shard-poisoning regression test: a
// transient failure must be returned to the caller but never stored, so
// the next request re-runs the evaluator instead of replaying the error
// forever.
func TestCacheTransientNotMemoized(t *testing.T) {
	s, _ := toySpace()
	eval, calls := flakyEval(s, 1)
	c := NewCacheContext(s, eval)
	pt := param.Point{1, 2}

	_, err := c.Evaluate(pt)
	if !IsTransient(err) {
		t.Fatalf("first call: got %v, want transient error", err)
	}
	if got := c.DistinctEvaluations(); got != 0 {
		t.Errorf("distinct after transient = %d, want 0 (no synthesis result was produced)", got)
	}
	if got := c.TransientFailures(); got != 1 {
		t.Errorf("transient counter = %d, want 1", got)
	}

	m, err := c.Evaluate(pt)
	if err != nil {
		t.Fatalf("second call should re-run the evaluator and succeed: %v", err)
	}
	if m["cost"] != 1 {
		t.Errorf("cost = %v, want 1", m["cost"])
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("evaluator calls = %d, want 2 (transient retried, success memoized)", got)
	}
	// The success is memoized normally.
	if _, err := c.Evaluate(pt); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("evaluator calls after hit = %d, want 2", got)
	}
	if got := c.DistinctEvaluations(); got != 1 {
		t.Errorf("distinct = %d, want 1", got)
	}
}

// TestCacheTransientWaitersGetError proves deduped waiters blocked on a
// transiently failing owner all receive the error (no deadlock, no stale
// entry), and a fresh request afterwards re-evaluates.
func TestCacheTransientWaitersGetError(t *testing.T) {
	s, _ := toySpace()
	release := make(chan struct{})
	var calls atomic.Int64
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		if calls.Add(1) == 1 {
			<-release
			return nil, MarkTransient(errors.New("tool crashed"))
		}
		return metrics.Metrics{"cost": 7}, nil
	}
	c := NewCacheContext(s, eval)
	pt := param.Point{3, 4}

	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Evaluate(pt)
		}(i)
	}
	for c.TotalQueries() < waiters { // all queries in flight or resolved
	}
	close(release)
	wg.Wait()

	failed := 0
	for _, err := range errs {
		if err != nil {
			if !IsTransient(err) {
				t.Errorf("waiter got non-transient error: %v", err)
			}
			failed++
		}
	}
	// Exactly one owner ran and failed; every goroutine that joined that
	// singleflight round shares its error. Goroutines arriving after the
	// withdrawal re-evaluate and succeed.
	if failed == 0 {
		t.Error("no waiter observed the transient failure")
	}
	if m, err := c.Evaluate(pt); err != nil || m["cost"] != 7 {
		t.Errorf("after transient: m=%v err=%v, want cost=7", m, err)
	}
}

// TestCacheContextCancelIsTransient: a canceled context surfaces as a
// transient error and leaves no cache entry behind.
func TestCacheContextCancelIsTransient(t *testing.T) {
	s, eval := toySpace()
	c := NewCacheContext(s, AdaptContext(eval))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pt := param.Point{5, 6}
	if _, err := c.EvaluateCtx(ctx, pt); !IsTransient(err) {
		t.Fatalf("canceled eval: got %v, want transient", err)
	}
	if got := c.DistinctEvaluations(); got != 0 {
		t.Errorf("distinct = %d, want 0", got)
	}
	// A live context then evaluates normally.
	if _, err := c.EvaluateCtx(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
}

// TestCacheExportRestoreRoundTrip: a restored cache serves the exported
// results and counters without calling the evaluator again.
func TestCacheExportRestoreRoundTrip(t *testing.T) {
	s, eval := toySpace()
	var calls atomic.Int64
	counting := func(pt param.Point) (metrics.Metrics, error) {
		calls.Add(1)
		return eval(pt)
	}
	c := NewCache(s, counting)
	pts := []param.Point{{0, 0}, {1, 2}, {9, 9}} // includes the infeasible corner
	want := make(map[string]metrics.Metrics)
	for _, pt := range pts {
		m, _ := c.Evaluate(pt)
		c.Evaluate(pt) // dedup hit
		want[s.Key(pt)] = m
	}
	snap := c.Export()
	if len(snap.Entries) != 3 {
		t.Fatalf("exported %d entries, want 3", len(snap.Entries))
	}

	c2 := NewCache(s, counting)
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	for _, pt := range pts {
		m, err := c2.Evaluate(pt)
		if s.Key(pt) == s.Key(param.Point{9, 9}) {
			if err == nil {
				t.Error("restored infeasible point did not return its error")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if w := want[s.Key(pt)]; w["cost"] != m["cost"] {
			t.Errorf("restored cost = %v, want %v", m["cost"], w["cost"])
		}
	}
	if calls.Load() != before {
		t.Errorf("restored cache called the evaluator %d times, want 0", calls.Load()-before)
	}
	st, st2 := c.Stats(), c2.Stats()
	if st2.Distinct != st.Distinct || st2.Transient != st.Transient ||
		st2.Total != st.Total+3 || st2.Hits != st.Hits+3 { // +3 verification queries, all hits
		t.Errorf("restored stats %+v, source %+v", st2, st)
	}
}

// TestCacheRestoreRejectsBadKeys: a snapshot with a foreign key fails
// cleanly instead of corrupting the cache.
func TestCacheRestoreRejectsBadKeys(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	snap := CacheSnapshot{Entries: []CacheEntrySnapshot{{Key: "no-such-param=1"}}}
	if err := c.Restore(snap); err == nil {
		t.Fatal("Restore accepted an invalid key")
	}
}

// TestCacheRestoreRejectsDuplicateKeys: a snapshot naming one point twice
// - something Export never writes - fails the restore instead of resuming
// on whichever entry the table happens to probe first.
func TestCacheRestoreRejectsDuplicateKeys(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	snap := CacheSnapshot{Distinct: 2, Total: 2, Entries: []CacheEntrySnapshot{
		{Key: "3,4", Metrics: metrics.Metrics{"cost": 1}},
		{Key: "3,4", Metrics: metrics.Metrics{"cost": 999}},
	}}
	if err := c.Restore(snap); err == nil {
		t.Fatal("Restore accepted a snapshot with a duplicate key")
	}
}
