package hist

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// refQuantile is the exact sorted-slice reference the histogram estimate
// is judged against (nearest-rank definition, matching Quantile's rank).
func refQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkQuantiles asserts that each estimated quantile lands inside the
// power-of-two bucket that holds the true sample - the histogram's
// documented accuracy contract.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := New()
	for _, v := range samples {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("%s: Count = %d, want %d", name, s.Count, len(samples))
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("%s: Sum = %d, want %d", name, s.Sum, sum)
	}

	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		truth := refQuantile(sorted, q)
		got := s.Quantile(q)
		b := bucketOf(truth)
		lo, hi := float64(BucketLo(b)), float64(BucketHi(b))
		if truth <= 0 {
			lo = 0
			hi = 1
		}
		if got < lo || got > hi {
			t.Errorf("%s: q=%.2f estimate %.2f outside bucket [%g, %g] of true value %d",
				name, q, got, lo, hi, truth)
		}
	}
}

func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	// Adversarial distributions called out in the issue: all-equal,
	// bimodal, single sample - plus uniform and heavy-tailed sanity cases.
	allEqual := make([]int64, 1000)
	for i := range allEqual {
		allEqual[i] = 4096
	}

	bimodal := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		bimodal = append(bimodal, 100+rng.Int63n(50)) // fast mode ~100ns
	}
	for i := 0; i < 100; i++ {
		bimodal = append(bimodal, 1_000_000+rng.Int63n(500_000)) // slow mode ~1ms
	}

	uniform := make([]int64, 10_000)
	for i := range uniform {
		uniform[i] = rng.Int63n(1_000_000)
	}

	heavyTail := make([]int64, 5_000)
	for i := range heavyTail {
		heavyTail[i] = int64(math.Exp(rng.Float64() * 20))
	}

	cases := map[string][]int64{
		"all-equal":     allEqual,
		"bimodal":       bimodal,
		"single-sample": {12345},
		"uniform":       uniform,
		"heavy-tail":    heavyTail,
		"with-zeros":    {0, 0, 0, 5, 5, 5},
	}
	for name, samples := range cases {
		checkQuantiles(t, name, samples)
	}
}

func TestBimodalSeparation(t *testing.T) {
	// The p50 must sit in the fast mode and the p99 in the slow mode; a
	// quantile sketch that smears the modes together would fail this.
	h := New()
	for i := 0; i < 900; i++ {
		h.Observe(128)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1 << 20)
	}
	s := h.Snapshot()
	if p50 := s.P50(); p50 < 64 || p50 > 256 {
		t.Errorf("p50 = %g, want within the fast mode [64, 256]", p50)
	}
	if p99 := s.P99(); p99 < 1<<19 || p99 > 1<<21 {
		t.Errorf("p99 = %g, want within the slow mode [2^19, 2^21]", p99)
	}
}

func TestEmptyAndEdgeBuckets(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Errorf("empty histogram mean = %g, want 0", got)
	}

	// Extreme samples must land in the outermost buckets without panics
	// or overflow.
	h.Observe(math.MinInt64)
	h.Observe(-1)
	h.Observe(0)
	h.Observe(1)
	h.Observe(math.MaxInt64)
	s = h.Snapshot()
	if s.Buckets[0] != 3 {
		t.Errorf("bucket 0 = %d, want 3 (non-positive samples)", s.Buckets[0])
	}
	if s.Buckets[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[63] != 1 {
		t.Errorf("bucket 63 = %d, want 1 (MaxInt64)", s.Buckets[63])
	}
	if q := s.Quantile(1); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Errorf("Quantile(1) with MaxInt64 sample = %g, want finite", q)
	}
}

func TestObserveDuration(t *testing.T) {
	h := New()
	h.ObserveDuration(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Sum != int64(2*time.Millisecond) {
		t.Errorf("Sum = %d, want %d", s.Sum, int64(2*time.Millisecond))
	}
}

func TestConcurrentObserve(t *testing.T) {
	h := New()
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("Count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestSnapshotConsistentUnderObserve: snapshots taken while observers run
// always have buckets that add up to their count, which is what keeps a
// scraped exposition's +Inf bucket from trailing its finite buckets.
func TestSnapshotConsistentUnderObserve(t *testing.T) {
	h := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(rng.Int63n(1 << 30))
				}
			}
		}(int64(w))
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var bucketTotal int64
		for _, n := range s.Buckets {
			bucketTotal += n
		}
		if bucketTotal != s.Count {
			t.Fatalf("snapshot %d: bucket total %d != count %d", i, bucketTotal, s.Count)
		}
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe("a", 10)
				s.Observe("b", 20)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d histograms, want 2", len(snap))
	}
	if snap["a"].Count != 4000 || snap["b"].Count != 4000 {
		t.Fatalf("counts = %d/%d, want 4000/4000", snap["a"].Count, snap["b"].Count)
	}
}
