package dataset

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// evalBatch runs one EvaluateBatchCtx call and returns its outcomes in
// fresh slices.
func evalBatch(c *Cache, ctx context.Context, hashes []uint64, pts []param.Point, par int) ([]metrics.Metrics, []error, error) {
	ms := make([]metrics.Metrics, len(pts))
	errs := make([]error, len(pts))
	err := c.EvaluateBatchCtx(ctx, hashes, pts, ms, errs, par)
	return ms, errs, err
}

// TestBatchEvaluateValues checks a batch with duplicates and an infeasible
// point returns exactly what point-at-a-time evaluation returns, with
// batch-amortized accounting that still matches the single path's.
func TestBatchEvaluateValues(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	pts := []param.Point{
		{1, 2}, {3, 4}, {1, 2}, {9, 9}, {3, 4}, {1, 2},
	}
	ms, errs, err := evalBatch(c, context.Background(), nil, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, wantErr := eval(pt)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Errorf("point %d: err %v, want %v", i, errs[i], wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(ms[i], want) {
			t.Errorf("point %d: metrics %v, want %v", i, ms[i], want)
		}
	}
	st := c.Stats()
	if st.Total != 6 || st.Distinct != 3 || st.Hits != 3 || st.Transient != 0 {
		t.Errorf("stats = %+v, want total 6, distinct 3, hits 3", st)
	}
}

// TestBatchMatchesSingleStats streams the same requests through the batch
// path and the single path on fresh caches: values and accounting must be
// identical.
func TestBatchMatchesSingleStats(t *testing.T) {
	s, eval := toySpace()
	var stream []param.Point
	for i := 0; i < 40; i++ {
		stream = append(stream, param.Point{i % 7, (i * 3) % 5})
	}

	single := NewCache(s, eval)
	var singleMs []metrics.Metrics
	var singleErrs []error
	for _, pt := range stream {
		m, err := single.EvaluateCtx(context.Background(), pt)
		singleMs = append(singleMs, m)
		singleErrs = append(singleErrs, err)
	}

	batch := NewCache(s, eval)
	var batchMs []metrics.Metrics
	var batchErrs []error
	for lo := 0; lo < len(stream); lo += 8 {
		ms, errs, err := evalBatch(batch, context.Background(), nil, stream[lo:lo+8], 2)
		if err != nil {
			t.Fatal(err)
		}
		batchMs = append(batchMs, ms...)
		batchErrs = append(batchErrs, errs...)
	}

	if !reflect.DeepEqual(singleMs, batchMs) {
		t.Error("batch metrics differ from single-path metrics")
	}
	if !reflect.DeepEqual(singleErrs, batchErrs) {
		t.Error("batch errors differ from single-path errors")
	}
	if ss, bs := single.Stats(), batch.Stats(); ss != bs {
		t.Errorf("stats differ: single %+v, batch %+v", ss, bs)
	}
}

// TestBatchTransientWithdrawal: a transient failure is delivered to every
// duplicate request of the key, never memoized, and the next batch retries
// the evaluation.
func TestBatchTransientWithdrawal(t *testing.T) {
	s, _ := toySpace()
	var mu sync.Mutex
	attempts := map[string]int{}
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		k := s.Key(pt)
		mu.Lock()
		attempts[k]++
		n := attempts[k]
		mu.Unlock()
		if k == "1,1" && n == 1 {
			return nil, MarkTransient(errors.New("backend hiccup"))
		}
		return metrics.Metrics{"cost": 1}, nil
	}
	c := NewCacheContext(s, eval)

	pts := []param.Point{{1, 1}, {2, 2}, {1, 1}}
	_, errs, err := evalBatch(c, context.Background(), nil, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil || !IsTransient(errs[0]) {
		t.Fatalf("first request: err %v, want transient", errs[0])
	}
	if !IsTransient(errs[2]) {
		t.Errorf("duplicate request: err %v, want the same transient", errs[2])
	}
	if errs[1] != nil {
		t.Errorf("healthy point: err %v", errs[1])
	}
	st := c.Stats()
	if st.Distinct != 1 || st.Transient != 1 {
		t.Errorf("stats = %+v, want distinct 1, transient 1", st)
	}

	// The withdrawn entry must not be poisoned: a later batch re-runs the
	// evaluator and memoizes the success.
	_, errs, err = evalBatch(c, context.Background(), nil, pts[:1], 1)
	if err != nil || errs[0] != nil {
		t.Fatalf("retry batch: %v / %v", err, errs[0])
	}
	if got := attempts["1,1"]; got != 2 {
		t.Errorf("attempts = %d, want 2 (withdrawn entry retried)", got)
	}
	if st := c.Stats(); st.Distinct != 2 || st.Transient != 1 {
		t.Errorf("stats after retry = %+v, want distinct 2, transient 1", st)
	}
}

// TestParentForwarding: a stacked cache hands its misses to the parent as
// one deduplicated batch in first-appearance order, memoized points never
// reach the parent, and the child's own evaluator is never called.
func TestParentForwarding(t *testing.T) {
	s, eval := toySpace()
	var evaluated []string
	parent := NewCache(s, func(pt param.Point) (metrics.Metrics, error) {
		evaluated = append(evaluated, s.Key(pt))
		return eval(pt)
	})
	c := NewCache(s, func(pt param.Point) (metrics.Metrics, error) {
		t.Errorf("child evaluator called for %s", s.Key(pt))
		return eval(pt)
	})
	c.SetParent(parent)

	// At par 1 the parent evaluates its misses in order on the calling
	// goroutine, so evaluated records each forwarded batch as it arrived.
	lookup := func(pts []param.Point, want ...string) {
		t.Helper()
		evaluated = nil
		before := parent.TotalQueries()
		ms, errs, err := evalBatch(c, context.Background(), nil, pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			wm, werr := eval(pt)
			if !sameOutcome(ms[i], errs[i], wm, werr) {
				t.Errorf("%s: (%v, %v), want (%v, %v)", s.Key(pt), ms[i], errs[i], wm, werr)
			}
		}
		if got := parent.TotalQueries() - before; got != len(want) || !reflect.DeepEqual(evaluated, want) {
			t.Errorf("parent got %d lookups evaluating %v, want %v", got, evaluated, want)
		}
	}
	lookup([]param.Point{{5, 1}, {6, 2}, {5, 1}, {7, 3}}, "5,1", "6,2", "7,3")
	// Second batch: only the genuinely new point reaches the parent.
	lookup([]param.Point{{5, 1}, {8, 4}}, "8,4")

	if st := c.Stats(); st.Distinct != 4 || st.Total != 6 {
		t.Errorf("child stats %+v, want 4 distinct of 6 lookups", st)
	}
	if st := parent.Stats(); st.Distinct != 4 || st.Total != 4 {
		t.Errorf("parent stats %+v, want 4 distinct of 4 lookups", st)
	}
}

// TestBatchCanceled: a batch under a canceled context reports the batch as
// incomplete and marks unevaluated items transient.
func TestBatchCanceled(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []param.Point{{1, 1}, {2, 2}}
	_, errs, err := evalBatch(c, ctx, nil, pts, 2)
	if err == nil {
		t.Fatal("batch error nil under canceled context")
	}
	for i, e := range errs {
		if e == nil || !IsTransient(e) {
			t.Errorf("item %d: err %v, want transient", i, e)
		}
	}
}

// TestBatchMergesInFlight: a batch requesting a key another goroutine is
// already evaluating waits for that result instead of re-dispatching, and
// a canceled wait abandons it transiently while the owner still completes.
func TestBatchMergesInFlight(t *testing.T) {
	s, _ := toySpace()
	started := make(chan struct{})
	release := make(chan struct{})
	var evals int
	var mu sync.Mutex
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		mu.Lock()
		evals++
		mu.Unlock()
		close(started)
		<-release
		return metrics.Metrics{"cost": 42}, nil
	}
	c := NewCacheContext(s, eval)

	// Owner: a single-point lookup holding the singleflight slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.EvaluateCtx(context.Background(), param.Point{4, 4}); err != nil {
			t.Errorf("owner: %v", err)
		}
	}()
	<-started

	// A batch for the same key under a cancelable context: first try is
	// canceled mid-wait, second try (after release) merges with the result.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, errs, err := evalBatch(c, ctx, nil, []param.Point{{4, 4}}, 1)
		if err == nil || !IsTransient(errs[0]) {
			t.Errorf("canceled merge: err %v / %v, want transient", err, errs[0])
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	<-done

	close(release)
	wg.Wait()
	ms, errs, err := evalBatch(c, context.Background(), nil, []param.Point{{4, 4}}, 1)
	if err != nil || errs[0] != nil {
		t.Fatalf("merged result: %v / %v", err, errs[0])
	}
	if ms[0]["cost"] != 42 {
		t.Errorf("merged metrics = %v", ms[0])
	}
	if evals != 1 {
		t.Errorf("evaluator ran %d times, want 1 (batch must merge, not re-dispatch)", evals)
	}
}

// TestBatchConcurrentBatches: concurrent batches over overlapping keys on
// one cache evaluate each key exactly once between them.
func TestBatchConcurrentBatches(t *testing.T) {
	s, _ := toySpace()
	var mu sync.Mutex
	evals := map[string]int{}
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		mu.Lock()
		evals[s.Key(pt)]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return metrics.Metrics{"cost": float64(pt[0])}, nil
	}
	c := NewCacheContext(s, eval)

	mk := func(off int) []param.Point {
		pts := make([]param.Point, 8)
		for i := range pts {
			pts[i] = param.Point{(off + i) % 9, (off + i) % 5}
		}
		return pts
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			ms, errs, err := evalBatch(c, context.Background(), nil, mk(off), 2)
			if err != nil {
				t.Errorf("batch %d: %v", off, err)
				return
			}
			for i, pt := range mk(off) {
				if errs[i] != nil || ms[i]["cost"] != float64(pt[0]) {
					t.Errorf("batch %d item %d: %v / %v", off, i, ms[i], errs[i])
				}
			}
		}(g * 4)
	}
	wg.Wait()
	for k, n := range evals {
		if n != 1 {
			t.Errorf("key %s evaluated %d times, want 1", k, n)
		}
	}
}

// TestBatchShapeErrors: the empty batch is answered without being
// counted (mismatched hash slices: TestBatchLengthMismatch).
func TestBatchShapeErrors(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	ms, errs, err := evalBatch(c, context.Background(), nil, nil, 1)
	if err != nil || len(ms) != 0 || len(errs) != 0 {
		t.Errorf("empty batch: %v %v %v", ms, errs, err)
	}
	if st := c.Stats(); st.Total != 0 {
		t.Errorf("empty batch counted: %+v", st)
	}
}

// TestBatchLargeDuplicateHeavy resolves one batch far larger than a
// generation, where most requests repeat a point an earlier request of the
// same batch owns: every duplicate is a hit on the owner's entry, and each
// distinct point costs one evaluation.
func TestBatchLargeDuplicateHeavy(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	n := 133
	pts := make([]param.Point, n)
	for i := range pts {
		pts[i] = param.Point{i % 8, (i / 8) % 5}
	}
	ms, errs, err := evalBatch(c, context.Background(), nil, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, _ := eval(pt)
		if errs[i] != nil || !reflect.DeepEqual(ms[i], want) {
			t.Errorf("item %d: %v / %v, want %v", i, ms[i], errs[i], want)
		}
	}
	if st := c.Stats(); st.Total != n || st.Distinct != 40 || st.Hits != n-40 {
		t.Errorf("stats = %+v, want total %d, distinct 40", st, n)
	}
	if got := c.DedupedWaits(); got != 0 {
		t.Errorf("deduped waits = %d, want 0 (a batch never waits on its own entries)", got)
	}
}
