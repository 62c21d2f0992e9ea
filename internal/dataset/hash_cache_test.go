package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// TestHashStringModeEquivalence runs the same request stream through the
// hash-keyed Cache and the string-keyed reference cache and demands
// identical results and identical deterministic accounting - the contract
// that lets the hot path key on genome hashes without changing a single
// answer.
func TestHashStringModeEquivalence(t *testing.T) {
	s, eval := toySpace()
	r := rand.New(rand.NewSource(42))
	pts := make([]param.Point, 300)
	for i := range pts {
		pts[i] = s.Random(r)
	}

	c := NewCache(s, eval)
	ref := newRefCache(s, eval)
	for _, pt := range pts {
		m, err := c.Evaluate(pt)
		wms, werrs := ref.batch([]param.Point{pt}, false)
		if !sameOutcome(m, err, wms[0], werrs[0]) {
			t.Fatalf("at %s: hash-keyed cache (%v, %v), string-keyed reference (%v, %v)",
				s.Key(pt), m, err, wms[0], werrs[0])
		}
	}
	hst, sst := c.Stats(), ref.stats()
	if hst != sst {
		t.Fatalf("stats differ: hash-keyed %+v, string-keyed reference %+v", hst, sst)
	}
	if hst.Collisions != 0 {
		t.Errorf("injective space produced %d collisions", hst.Collisions)
	}
}

// TestHashModeExportByteIdentical checks the hash-keyed cache checkpoints
// byte-identically to the string-keyed reference: persistence always speaks
// canonical string keys.
func TestHashModeExportByteIdentical(t *testing.T) {
	s, eval := toySpace()
	r := rand.New(rand.NewSource(9))
	pts := make([]param.Point, 120)
	for i := range pts {
		pts[i] = s.Random(r)
	}
	pts = append(pts, param.Point{9, 9}) // memoized permanent error

	c := NewCache(s, eval)
	ref := newRefCache(s, eval)
	for _, pt := range pts {
		c.Evaluate(pt)
		ref.batch([]param.Point{pt}, false)
	}
	hsnap := c.Export()
	got, err := json.Marshal(hsnap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.export())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hash-keyed export differs from the string-keyed reference:\n got %s\nwant %s", got, want)
	}

	// And a cache restored from the (string-keyed) snapshot serves the same
	// answers without new evaluator calls.
	rc := NewCache(s, func(param.Point) (metrics.Metrics, error) {
		t.Error("restored cache called the evaluator for a memoized point")
		return nil, errors.New("unexpected")
	})
	if err := rc.Restore(hsnap); err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		m, err := rc.Evaluate(pt)
		wm, werr := eval(pt)
		if !reflect.DeepEqual(m, wm) || (err == nil) != (werr == nil) {
			t.Fatalf("restored cache disagrees at %s", s.Key(pt))
		}
	}
}

// TestKeyModeAPIBridging checks every public lookup entry point - a point
// lookup, or a batch handed points with or without precomputed hashes -
// resolves one point to one shared cache identity, and that a cache
// restored from the string-keyed snapshot answers all of them without new
// evaluator calls.
func TestKeyModeAPIBridging(t *testing.T) {
	s, eval := toySpace()
	pt := param.Point{2, 5}
	h := s.Hash64(pt)
	ctx := context.Background()
	wm, _ := eval(pt)

	check := func(label string, c *Cache) {
		t.Helper()
		for name, call := range map[string]func() (metrics.Metrics, error){
			"Evaluate":    func() (metrics.Metrics, error) { return c.Evaluate(pt) },
			"EvaluateCtx": func() (metrics.Metrics, error) { return c.EvaluateCtx(ctx, pt) },
			"EvaluateBatchCtx": func() (metrics.Metrics, error) {
				ms, errs, err := evalBatch(c, ctx, nil, []param.Point{pt}, 1)
				if err != nil {
					return nil, err
				}
				return ms[0], errs[0]
			},
			"EvaluateBatchCtx with hashes": func() (metrics.Metrics, error) {
				ms, errs, err := evalBatch(c, ctx, []uint64{h}, []param.Point{pt}, 1)
				if err != nil {
					return nil, err
				}
				return ms[0], errs[0]
			},
		} {
			m, err := call()
			if err != nil || !reflect.DeepEqual(m, wm) {
				t.Errorf("%s: %s returned (%v, %v), want (%v, nil)", label, name, m, err, wm)
			}
		}
		if got := c.DistinctEvaluations(); got != 1 {
			t.Errorf("%s: distinct = %d, want 1 across bridged entry points", label, got)
		}
	}

	c := NewCache(s, eval)
	check("fresh", c)
	restored := NewCache(s, func(param.Point) (metrics.Metrics, error) {
		t.Error("restored cache called the evaluator for a memoized point")
		return nil, errors.New("unexpected")
	})
	if err := restored.Restore(c.Export()); err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}

// TestHashCollisionVerification forces every point onto one 64-bit hash via
// the test-only hashFn override and proves the genome-verification fallback:
// every lookup still gets its own point's answer, and the collision counter
// surfaces the probe cost in Stats.
func TestHashCollisionVerification(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	c.hashFn = func(param.Point) uint64 { return 0xdecafbad }

	var pts []param.Point
	s.Enumerate(func(pt param.Point) bool {
		pts = append(pts, pt.Clone())
		return true
	})
	check := func() {
		for _, pt := range pts {
			m, err := c.Evaluate(pt)
			wm, werr := eval(pt)
			if (err == nil) != (werr == nil) || !reflect.DeepEqual(m, wm) {
				t.Fatalf("colliding cache returned wrong answer for %s: %v, %v", s.Key(pt), m, err)
			}
		}
	}
	check() // all misses: every insert chains behind the same hash
	check() // all hits: every lookup probes through the full chain
	st := c.Stats()
	if st.Distinct != len(pts) {
		t.Errorf("distinct = %d, want %d (collisions must not merge points)", st.Distinct, len(pts))
	}
	if st.Hits != len(pts) {
		t.Errorf("hits = %d, want %d", st.Hits, len(pts))
	}
	if st.Collisions == 0 {
		t.Error("Stats().Collisions = 0 after forcing every point onto one hash")
	}
	if got := c.HashCollisions(); got != st.Collisions {
		t.Errorf("HashCollisions() = %d, Stats().Collisions = %d", got, st.Collisions)
	}

	// Batches must survive the same abuse, including equal-hash distinct
	// points and their duplicates inside one batch.
	for _, dup := range []int{1, 3} {
		c.Reset()
		var batch []param.Point
		for i := 0; i < dup; i++ {
			batch = append(batch, pts...)
		}
		ms, errs, err := evalBatch(c, context.Background(), nil, batch, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range batch {
			wm, werr := eval(pt)
			if (errs[i] == nil) != (werr == nil) || !reflect.DeepEqual(ms[i], wm) {
				t.Fatalf("colliding batch (dup=%d) wrong at %s", dup, s.Key(pt))
			}
		}
		if got := c.DistinctEvaluations(); got != len(pts) {
			t.Errorf("batch dup=%d: distinct = %d, want %d", dup, got, len(pts))
		}
	}
}

// TestHashModeTransientWithdraw checks the hash path never memoizes
// transient failures: the withdrawn table entry is re-evaluated on retry.
func TestHashModeTransientWithdraw(t *testing.T) {
	s, _ := toySpace()
	calls := 0
	c := NewCache(s, func(pt param.Point) (metrics.Metrics, error) {
		calls++
		if calls == 1 {
			return nil, MarkTransient(errors.New("tool crashed"))
		}
		return metrics.Metrics{"cost": 1}, nil
	})
	pt := param.Point{1, 1}
	if _, err := c.Evaluate(pt); !IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
	if m, err := c.Evaluate(pt); err != nil || m["cost"] != 1 {
		t.Fatalf("retry after transient failed: %v, %v", m, err)
	}
	if calls != 2 {
		t.Errorf("evaluator ran %d times, want 2 (withdraw then retry)", calls)
	}
	st := c.Stats()
	if st.Transient != 1 || st.Distinct != 1 {
		t.Errorf("stats = %+v, want Transient=1 Distinct=1", st)
	}
}

// TestHashModeBatchEquivalence mirrors the batch/single equivalence suite in
// hash mode across batch shapes and parallelism, including duplicate-heavy
// batches larger than a generation.
func TestHashModeBatchEquivalence(t *testing.T) {
	s, eval := toySpace()
	r := rand.New(rand.NewSource(17))
	var pts []param.Point
	for i := 0; i < 90; i++ {
		pt := s.Random(r)
		pts = append(pts, pt, pt.Clone()) // heavy duplication
	}

	want := make([]metrics.Metrics, len(pts))
	wantErr := make([]string, len(pts))
	for i, pt := range pts {
		m, err := eval(pt)
		want[i] = m
		if err != nil {
			wantErr[i] = err.Error()
		}
	}

	for _, batchSize := range []int{1, 7, 80} {
		for _, par := range []int{1, 4} {
			c := NewCache(s, eval)
			got := make([]metrics.Metrics, 0, len(pts))
			gotErr := make([]string, 0, len(pts))
			for lo := 0; lo < len(pts); lo += batchSize {
				hi := lo + batchSize
				if hi > len(pts) {
					hi = len(pts)
				}
				ms, errs, err := evalBatch(c, context.Background(), nil, pts[lo:hi], par)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ms...)
				for _, e := range errs {
					if e != nil {
						gotErr = append(gotErr, e.Error())
					} else {
						gotErr = append(gotErr, "")
					}
				}
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("hash batch (size=%d par=%d) diverged from direct evaluation", batchSize, par)
			}
		}
	}
}

// TestHashedHotPathAllocs pins the perf contract of the one resolver: a
// warm point lookup - a batch of one - allocates nothing, and neither does
// a warm generation-sized batch writing into caller-owned result slices.
// A regression here fails CI.
func TestHashedHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold in non-race builds")
	}
	s, eval := toySpace()
	c := NewCache(s, eval)
	pt := param.Point{3, 4}
	ctx := context.Background()
	if _, err := c.EvaluateCtx(ctx, pt); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.EvaluateCtx(ctx, pt)
	}); avg != 0 {
		t.Errorf("warm point lookup allocates %.1f times per call, want 0", avg)
	}

	// Generation-shaped warm batch: 32 requests over 16 distinct points.
	r := rand.New(rand.NewSource(3))
	batch := make([]param.Point, 0, 32)
	hashes := make([]uint64, 0, 32)
	for i := 0; i < 16; i++ {
		pt := s.Random(r)
		batch = append(batch, pt, pt)
		hh := s.Hash64(pt)
		hashes = append(hashes, hh, hh)
	}
	ms := make([]metrics.Metrics, len(batch))
	errs := make([]error, len(batch))
	if err := c.EvaluateBatchCtx(ctx, hashes, batch, ms, errs, 1); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.EvaluateBatchCtx(ctx, hashes, batch, ms, errs, 1)
	}); avg != 0 {
		t.Errorf("warm batch allocates %.1f times per call, want 0", avg)
	}
}

// TestBatchLengthMismatch checks the batch entry point rejects a ragged
// hash or result slice instead of misattributing results.
func TestBatchLengthMismatch(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	pts := []param.Point{{1, 1}, {2, 2}}
	if _, _, err := evalBatch(c, context.Background(), []uint64{1}, pts, 1); err == nil {
		t.Error("hashed batch accepted 1 hash for 2 points")
	}
	if err := c.EvaluateBatchCtx(context.Background(), nil, pts, make([]metrics.Metrics, 2), make([]error, 1), 1); err == nil {
		t.Error("batch accepted 1 error slot for 2 points")
	}
	if st := c.Stats(); st.Total != 0 {
		t.Errorf("rejected batches were counted: %+v", st)
	}
}

// TestTableGrowthAndTombstones drives one shard's open-addressed table
// through many insert/withdraw cycles to exercise growth, tombstone reuse,
// and rehash - the failure injection pattern a supervised flaky evaluator
// produces.
func TestTableGrowthAndTombstones(t *testing.T) {
	s := param.MustSpace(param.Int("x", 0, 9999, 1))
	attempt := make(map[int]int)
	c := NewCache(s, func(pt param.Point) (metrics.Metrics, error) {
		x := pt[0]
		attempt[x]++
		if attempt[x] == 1 && x%3 == 0 {
			return nil, MarkTransient(fmt.Errorf("flaky %d", x))
		}
		return metrics.Metrics{"v": float64(x)}, nil
	})
	for x := 0; x < 2000; x++ {
		pt := param.Point{x}
		m, err := c.Evaluate(pt)
		if x%3 == 0 {
			if !IsTransient(err) {
				t.Fatalf("x=%d: want transient, got %v", x, err)
			}
			m, err = c.Evaluate(pt) // retry lands in the tombstoned slot's chain
		}
		if err != nil || m["v"] != float64(x) {
			t.Fatalf("x=%d: got (%v, %v)", x, m, err)
		}
	}
	// Everything remains retrievable after growth interleaved with
	// tombstoning.
	for x := 0; x < 2000; x++ {
		if m, err := c.Evaluate(param.Point{x}); err != nil || m["v"] != float64(x) {
			t.Fatalf("post-growth lookup x=%d: (%v, %v)", x, m, err)
		}
	}
	st := c.Stats()
	if st.Distinct != 2000 {
		t.Errorf("distinct = %d, want 2000", st.Distinct)
	}
}
