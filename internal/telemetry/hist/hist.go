// Package hist provides lock-free power-of-two-bucket histograms for
// latency distributions. Where telemetry.Histogram needs its bucket
// bounds chosen up front (fine for one well-understood quantity like
// per-generation wall time), Hist covers the full int64 range with 65
// fixed buckets - bucket i holds values in [2^(i-1), 2^i) - so one type
// serves nanosecond-scale span durations and minute-scale synthesis runs
// alike with bounded (power-of-two) relative quantile error.
//
// Observe is a few atomic adds and a bits.Len64; there is no lock, no
// allocation, and no contention beyond cache-line sharing, so it is safe
// on the dispatch hot path. A snapshot's Count is the sum of the buckets
// it read, so its buckets always add up to its count (an exposition's +Inf
// bucket never trails its finite ones); concurrent observers may land
// between reads, so Sum can run a few samples ahead of or behind them.
package hist

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of histogram buckets: bucket 0 counts
// non-positive values, bucket i (1..63) counts values in [2^(i-1), 2^i)
// - the highest bucket caps at MaxInt64, the largest observable sample.
const NumBuckets = 64

// Hist is a lock-free histogram over int64 samples (typically
// nanoseconds). The zero value is ready to use.
type Hist struct {
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// New returns an empty histogram.
func New() *Hist { return &Hist{} }

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for v >= 1
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Hist) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot returns a point-in-time copy of the histogram.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Snapshot is a point-in-time copy of a Hist, suitable for quantile
// estimation and exposition.
type Snapshot struct {
	// Buckets[i] counts samples in [BucketLo(i), BucketHi(i)).
	Buckets [NumBuckets]int64
	// Count is the total number of samples: the sum of Buckets.
	Count int64
	// Sum is the running sum of all samples.
	Sum int64
}

// BucketLo returns the inclusive lower bound of bucket i.
func BucketLo(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	return 1 << (i - 1)
}

// BucketHi returns the exclusive upper bound of bucket i (MaxInt64 for
// the last bucket, whose true bound 2^64 overflows).
func BucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1 << i
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the
// bucket holding the q-th sample and interpolating linearly inside it.
// The estimate is within the true sample's bucket, so relative error is
// bounded by the power-of-two bucket width. Returns 0 when empty.
func (s *Snapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample we want.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == 0 {
			return 0 // non-positive samples: report 0
		}
		lo, hi := math.Ldexp(1, i-1), math.Ldexp(1, i)
		// Interpolate by the rank's position within this bucket.
		frac := (float64(rank-cum) - 0.5) / float64(n)
		return lo + frac*(hi-lo)
	}
	return 0
}

// P50 returns the estimated median.
func (s *Snapshot) P50() float64 { return s.Quantile(0.50) }

// P90 returns the estimated 90th percentile.
func (s *Snapshot) P90() float64 { return s.Quantile(0.90) }

// P99 returns the estimated 99th percentile.
func (s *Snapshot) P99() float64 { return s.Quantile(0.99) }

// Mean returns the arithmetic mean of all samples (0 when empty).
func (s *Snapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Set is a named collection of histograms, created lazily on first
// Observe. Lookups take a read lock; creation takes the write lock once
// per name. It backs per-span-name and per-route latency aggregation.
type Set struct {
	mu sync.RWMutex
	m  map[string]*Hist
}

// NewSet returns an empty histogram set.
func NewSet() *Set { return &Set{m: make(map[string]*Hist)} }

// Get returns the named histogram, creating it on first use.
func (s *Set) Get(name string) *Hist {
	s.mu.RLock()
	h, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok = s.m[name]; ok {
		return h
	}
	h = New()
	s.m[name] = h
	return h
}

// Observe records one sample into the named histogram.
func (s *Set) Observe(name string, v int64) { s.Get(name).Observe(v) }

// Snapshot returns a point-in-time copy of every histogram in the set.
func (s *Set) Snapshot() map[string]Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Snapshot, len(s.m))
	for name, h := range s.m {
		out[name] = h.Snapshot()
	}
	return out
}
