package dataset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// refCache is the reference oracle for Cache: one map from canonical key
// to memoized outcome, consulted strictly sequentially. It has no shards,
// hashes, singleflight slots or scratch pools, so each of its answers is
// the specification the production cache must reproduce.
type refCache struct {
	space   *param.Space
	eval    Evaluator
	entries map[string]refOutcome

	distinct, total, transient int64
}

type refOutcome struct {
	m   metrics.Metrics
	err error
}

func newRefCache(space *param.Space, eval Evaluator) *refCache {
	return &refCache{space: space, eval: eval, entries: make(map[string]refOutcome)}
}

// batch resolves pts the way one Cache batch must: every lookup counts,
// a memoized point is answered without an evaluator call, and each other
// distinct point costs exactly one call whose outcome all its duplicates
// in the batch share. Transient outcomes are never memoized. A point
// lookup is a batch of one.
func (r *refCache) batch(pts []param.Point) ([]metrics.Metrics, []error) {
	r.total += int64(len(pts))
	fresh := make(map[string]refOutcome)
	ms := make([]metrics.Metrics, len(pts))
	errs := make([]error, len(pts))
	for i, pt := range pts {
		key := r.space.Key(pt)
		o, ok := r.entries[key]
		if !ok {
			o, ok = fresh[key]
		}
		if !ok {
			o.m, o.err = r.eval(pt)
			fresh[key] = o
			if o.err != nil && IsTransient(o.err) {
				r.transient++
			} else {
				r.distinct++
				r.entries[key] = o
			}
		}
		ms[i], errs[i] = o.m, o.err
	}
	return ms, errs
}

func (r *refCache) stats() CacheStats {
	hits := r.total - r.distinct - r.transient
	st := CacheStats{Distinct: int(r.distinct), Total: int(r.total), Hits: int(hits), Transient: int(r.transient)}
	if r.total > 0 {
		st.HitRate = float64(hits) / float64(r.total)
	}
	return st
}

func (r *refCache) export() CacheSnapshot {
	snap := CacheSnapshot{Distinct: r.distinct, Total: r.total, Transient: r.transient}
	for key, o := range r.entries {
		es := CacheEntrySnapshot{Key: key, Metrics: o.m}
		if o.err != nil {
			es.Err = o.err.Error()
		}
		snap.Entries = append(snap.Entries, es)
	}
	sort.Slice(snap.Entries, func(a, b int) bool { return snap.Entries[a].Key < snap.Entries[b].Key })
	return snap
}

func (r *refCache) restore(snap CacheSnapshot) {
	r.entries = make(map[string]refOutcome, len(snap.Entries))
	for _, es := range snap.Entries {
		o := refOutcome{m: es.Metrics}
		if es.Err != "" {
			o.err = errors.New(es.Err)
		}
		r.entries[es.Key] = o
	}
	r.distinct, r.total, r.transient = snap.Distinct, snap.Total, snap.Transient
}

// refSpace is small enough that random streams revisit points constantly.
var refSpace = param.MustSpace(param.Int("a", 0, 5, 1), param.Int("b", 0, 5, 1))

// faultPlan scripts an evaluator over refSpace: a point's first
// transient[key] calls fail transiently, and the points in permanent then
// fail for good (memoizable infeasibility).
type faultPlan struct {
	transient map[string]int
	permanent map[string]bool
}

// evaluator returns a fresh evaluator following the plan. Attempts are
// counted per point, so the outcome sequence does not depend on the order
// in which distinct points are evaluated - only on how often each one is.
func (p faultPlan) evaluator() Evaluator {
	var mu sync.Mutex
	attempts := make(map[string]int)
	return func(pt param.Point) (metrics.Metrics, error) {
		key := refSpace.Key(pt)
		mu.Lock()
		attempts[key]++
		n := attempts[key]
		mu.Unlock()
		if n <= p.transient[key] {
			return nil, MarkTransient(fmt.Errorf("flake %s #%d", key, n))
		}
		if p.permanent[key] {
			return nil, fmt.Errorf("infeasible %s", key)
		}
		return metrics.Metrics{"v": float64(10*pt[0] + pt[1])}, nil
	}
}

// Stream operations.
const (
	opPoint     = iota // one lookup through EvaluateCtx: a batch of one
	opBatch            // one batch through EvaluateBatchCtx, with or without hashes
	opRoundTrip        // Export, then Restore into a fresh cache
)

type cacheOp struct {
	kind   int
	pts    []param.Point
	par    int
	hashed bool
}

// cacheStream is one generated workload: a fault plan plus a sequence of
// point lookups, batches (duplicates included) and Export/Restore
// round-trips.
type cacheStream struct {
	plan faultPlan
	ops  []cacheOp
}

func (cacheStream) Generate(r *rand.Rand, size int) reflect.Value {
	s := cacheStream{plan: faultPlan{transient: map[string]int{}, permanent: map[string]bool{}}}
	refSpace.Enumerate(func(pt param.Point) bool {
		key := refSpace.Key(pt)
		if r.Intn(4) == 0 {
			s.plan.transient[key] = 1 + r.Intn(2)
		}
		if r.Intn(6) == 0 {
			s.plan.permanent[key] = true
		}
		return true
	})
	for n := 1 + r.Intn(2*size+1); n > 0; n-- {
		op := cacheOp{par: 1 + 2*r.Intn(2), hashed: r.Intn(2) == 0}
		switch k := r.Intn(10); {
		case k < 4:
			op.kind = opPoint
			op.pts = []param.Point{refSpace.Random(r)}
		case k < 9:
			op.kind = opBatch
			for m := r.Intn(12); m > 0; m-- {
				pt := refSpace.Random(r)
				op.pts = append(op.pts, pt)
				if r.Intn(3) == 0 {
					op.pts = append(op.pts, pt.Clone())
				}
			}
		default:
			op.kind = opRoundTrip
		}
		s.ops = append(s.ops, op)
	}
	return reflect.ValueOf(s)
}

// sameOutcome compares two lookup outcomes: equal metrics, and errors that
// agree on presence, message and transience.
func sameOutcome(m1 metrics.Metrics, e1 error, m2 metrics.Metrics, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error() && IsTransient(e1) == IsTransient(e2)
	}
	return reflect.DeepEqual(m1, m2)
}

// TestCacheMatchesReference sends generated streams through the production
// Cache and the map-backed reference in lockstep and demands the same
// answer for every lookup, and the same Stats() and Export() after every
// operation: point and batch lookups, duplicate-heavy batches fanned out
// at par 1 and 3, permanent and transient evaluator errors, and
// Export/Restore round-trips into a fresh cache.
func TestCacheMatchesReference(t *testing.T) {
	ctx := context.Background()
	check := func(s cacheStream) bool {
		prodEval, refEval := s.plan.evaluator(), s.plan.evaluator()
		c := NewCache(refSpace, prodEval)
		ref := newRefCache(refSpace, refEval)
		for i, op := range s.ops {
			var ms []metrics.Metrics
			var errs []error
			switch op.kind {
			case opPoint:
				m, err := c.EvaluateCtx(ctx, op.pts[0])
				ms, errs = []metrics.Metrics{m}, []error{err}
			case opBatch:
				var hashes []uint64
				if op.hashed {
					hashes = make([]uint64, len(op.pts))
					for k, pt := range op.pts {
						hashes[k] = refSpace.Hash64(pt)
					}
				}
				var err error
				ms, errs, err = evalBatch(c, ctx, hashes, op.pts, op.par)
				if err != nil {
					t.Logf("op %d: batch error %v", i, err)
					return false
				}
			case opRoundTrip:
				snap := c.Export()
				c = NewCache(refSpace, prodEval)
				if err := c.Restore(snap); err != nil {
					t.Logf("op %d: restore: %v", i, err)
					return false
				}
				ref.restore(ref.export())
			}
			wms, werrs := ref.batch(op.pts)
			for k := range op.pts {
				if !sameOutcome(ms[k], errs[k], wms[k], werrs[k]) {
					t.Logf("op %d item %d (%s): cache (%v, %v), reference (%v, %v)",
						i, k, refSpace.Key(op.pts[k]), ms[k], errs[k], wms[k], werrs[k])
					return false
				}
			}
			if got, want := c.Stats(), ref.stats(); got != want {
				t.Logf("op %d: Stats %+v, reference %+v", i, got, want)
				return false
			}
			if got, want := c.Export(), ref.export(); !reflect.DeepEqual(got, want) {
				t.Logf("op %d: Export %+v, reference %+v", i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
