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
	"unsafe"

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
// lookup is a batch of one. A batch under an already canceled context
// makes no evaluator call: each distinct miss ends in one transient
// cancellation error.
func (r *refCache) batch(pts []param.Point, canceled bool) ([]metrics.Metrics, []error) {
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
			if canceled {
				o.m, o.err = nil, MarkTransient(context.Canceled)
			} else {
				o.m, o.err = r.eval(pt)
			}
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
	opMark             // Mark, checked by ExportMark once the stream ends
)

type cacheOp struct {
	kind   int
	pts    []param.Point
	par    int
	hashed bool
	// canceled runs the lookup under an already canceled context.
	canceled bool
}

// cacheStream is one generated workload: a fault plan plus a sequence of
// point lookups, batches (duplicates included), lookups under canceled
// contexts, Export/Restore round-trips and marks.
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
		op := cacheOp{par: 1 + 2*r.Intn(2), hashed: r.Intn(2) == 0, canceled: r.Intn(6) == 0}
		switch k := r.Intn(12); {
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
		case k < 10:
			op.kind = opRoundTrip
		default:
			op.kind = opMark
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
// at par 1 and 3, permanent and transient evaluator errors, lookups under
// canceled contexts, and Export/Restore round-trips into a fresh cache.
// Marks taken between operations must render, through ExportMark once the
// whole stream has run, exactly the reference's export at the mark.
func TestCacheMatchesReference(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	type markedExport struct {
		c    *Cache
		mark CacheMark
		want CacheSnapshot
	}
	check := func(s cacheStream) bool {
		prodEval, refEval := s.plan.evaluator(), s.plan.evaluator()
		c := NewCache(refSpace, prodEval)
		ref := newRefCache(refSpace, refEval)
		var marks []markedExport
		for i, op := range s.ops {
			ctx := context.Background()
			if op.canceled {
				ctx = canceled
			}
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
				if err != ctx.Err() {
					t.Logf("op %d: batch error %v, context error %v", i, err, ctx.Err())
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
			case opMark:
				marks = append(marks, markedExport{c, c.Mark(), ref.export()})
			}
			wms, werrs := ref.batch(op.pts, op.canceled)
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
		for k, m := range marks {
			if got := m.c.ExportMark(m.mark); !reflect.DeepEqual(got, m.want) {
				t.Logf("mark %d: ExportMark %+v, reference export at the mark %+v", k, got, m.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEntrySize pins a cache entry at 64 bytes, a single allocation
// size class on 64-bit platforms: the completion stamp ExportMark filters
// on lives in the completion record an entry's batch shares, not in the
// entry, which would push every entry into the 80-byte class.
func TestCacheEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("entry layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(cacheEntry{}); got != 64 {
		t.Errorf("cacheEntry is %d bytes, want 64", got)
	}
}
