// Package faulty provides a deterministic fault-injection evaluator for
// exercising the resilience layer. Each design point is assigned a fault
// class (clean, transient, permanent, hang, or NaN-metrics) by hashing its
// canonical key with the injector seed, so a given (seed, space, rates)
// triple always faults the same points the same way - across processes,
// across resumed runs, and regardless of evaluation order or parallelism.
//
// Transient faults fail the first Config.TransientFailures attempts on a
// point and then succeed, which lets a retrying supervisor absorb them
// without changing search results. Permanent, hang, and NaN faults persist
// for the life of the point; under the supervisor they end in an immediate
// permanent error, repeated timeouts, and retry exhaustion respectively,
// which makes them the natural probes for circuit-breaker behavior.
package faulty

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/synth"
)

// Class is the fault behavior assigned to a design point.
type Class int

const (
	// Clean points delegate straight to the inner evaluator.
	Clean Class = iota
	// Transient points fail their first TransientFailures attempts.
	Transient
	// Permanent points always fail with a non-transient error.
	Permanent
	// Hang points block until the attempt's context is canceled.
	Hang
	// NaN points return metrics poisoned with IEEE specials.
	NaN
)

func (c Class) String() string {
	switch c {
	case Clean:
		return "clean"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Hang:
		return "hang"
	case NaN:
		return "nan"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Config selects which fraction of the design space misbehaves and how.
// The rates carve disjoint slices out of [0,1): a point's hash decides
// which slice it falls in, so expected fault fractions match the rates
// over large spaces. Rates must be non-negative and sum to at most 1.
type Config struct {
	// TransientRate is the fraction of points that fail transiently.
	TransientRate float64
	// TransientFailures is how many attempts fail before a transient
	// point succeeds (default 1).
	TransientFailures int
	// PermanentRate is the fraction of points that always fail hard.
	PermanentRate float64
	// HangRate is the fraction of points that block until canceled.
	HangRate float64
	// NaNRate is the fraction of points returning NaN-poisoned metrics.
	NaNRate float64
	// Seed decorrelates fault assignment from the space layout and the
	// search seed.
	Seed int64
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"TransientRate", c.TransientRate},
		{"PermanentRate", c.PermanentRate},
		{"HangRate", c.HangRate},
		{"NaNRate", c.NaNRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("faulty: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if sum := c.TransientRate + c.PermanentRate + c.HangRate + c.NaNRate; sum > 1 {
		return fmt.Errorf("faulty: fault rates sum to %v, must be at most 1", sum)
	}
	if c.TransientFailures < 0 {
		return fmt.Errorf("faulty: TransientFailures %d is negative", c.TransientFailures)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.TransientFailures == 0 {
		c.TransientFailures = 1
	}
	return c
}

// Injector wraps an evaluator with deterministic seeded faults.
type Injector struct {
	space *param.Space
	inner dataset.ContextEvaluator
	cfg   Config

	mu       sync.Mutex
	attempts map[string]int // transient-point attempt counts

	injected [5]atomic.Int64 // per-Class injection counts (Clean = passthroughs)
}

// NewContext builds an injector around a context-aware evaluator (a plain
// one goes through dataset.AdaptContext).
func NewContext(space *param.Space, inner dataset.ContextEvaluator, cfg Config) (*Injector, error) {
	if space == nil || inner == nil {
		return nil, fmt.Errorf("faulty: space and inner evaluator are required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		space:    space,
		inner:    inner,
		cfg:      cfg.withDefaults(),
		attempts: make(map[string]int),
	}, nil
}

// Classify returns the fault class assigned to a point. The class is a pure
// function of (point key, Seed, rates): the point's hash is mapped to a unit
// interval position and matched against the configured rate slices.
func (in *Injector) Classify(pt param.Point) Class {
	h := synth.Hash64("faulty", strconv.FormatInt(in.cfg.Seed, 10), in.space.Key(pt))
	u := float64(h>>11) / float64(1<<53) // uniform in [0,1)
	c := in.cfg
	switch {
	case u < c.TransientRate:
		return Transient
	case u < c.TransientRate+c.PermanentRate:
		return Permanent
	case u < c.TransientRate+c.PermanentRate+c.HangRate:
		return Hang
	case u < c.TransientRate+c.PermanentRate+c.HangRate+c.NaNRate:
		return NaN
	}
	return Clean
}

// Injected reports how many evaluations hit each class so far (Clean counts
// clean passthroughs).
func (in *Injector) Injected(c Class) int64 {
	return in.injected[c].Load()
}

// Evaluate implements dataset.ContextEvaluator with faults injected ahead
// of the inner evaluator.
func (in *Injector) Evaluate(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
	class := in.Classify(pt)
	in.injected[class].Add(1)
	switch class {
	case Transient:
		key := in.space.Key(pt)
		in.mu.Lock()
		in.attempts[key]++
		n := in.attempts[key]
		in.mu.Unlock()
		if n <= in.cfg.TransientFailures {
			return nil, dataset.MarkTransient(fmt.Errorf("faulty: injected transient failure %d/%d at %s",
				n, in.cfg.TransientFailures, key))
		}
	case Permanent:
		return nil, fmt.Errorf("faulty: injected permanent failure at %s", in.space.Key(pt))
	case Hang:
		<-ctx.Done()
		return nil, dataset.MarkTransient(ctx.Err())
	case NaN:
		m, err := in.inner(ctx, pt)
		if err != nil {
			return m, err
		}
		poisoned := make(metrics.Metrics, len(m))
		for name := range m {
			poisoned[name] = math.NaN()
		}
		return poisoned, nil
	}
	return in.inner(ctx, pt)
}
