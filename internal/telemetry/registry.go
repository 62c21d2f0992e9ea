package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 to keep the counter monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Max atomically raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Bounds[i]; the final implicit bucket counts the
// overflow. Observations are lock-free atomic increments, and a
// snapshot's Count is the sum of the buckets it read, so the two always
// agree even while observers run.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	sum    Gauge
}

// newHistogram builds a histogram over ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		h.sum.Add(v)
	}
}

// HistogramSnapshot is a point-in-time export of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] holds observations
	// <= Bounds[i], and Counts[len(Bounds)] the overflow.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Count and Sum summarize all observations (Sum over finite samples).
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// Snapshot is a point-in-time export of a Registry, suitable for JSON
// encoding (non-finite gauge values are dropped).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a named collection of counters, gauges, and histograms.
// Registration takes a mutex; the returned metric handles update through
// atomics only, so instrumented hot paths resolve their metrics once and
// never contend.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. An already-registered name keeps its original
// bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot exports every metric's current value. Each metric is read
// atomically; the set of metrics is captured under the registration lock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if v := g.Value(); !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Gauges[name] = v
		}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.sum.Value(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	return s
}
