// Package dataset provides evaluation caching and pre-characterized design
// space datasets.
//
// The Nautilus paper measures search cost in *distinct design points
// evaluated*, because each distinct evaluation is a multi-minute-to-multi-
// hour synthesis/simulation job while re-visiting an already-characterized
// point is free. Cache wraps an evaluator with exactly that accounting.
// Dataset holds a fully enumerated characterization (the paper's "offline"
// datasets produced on a 200+ core cluster) and answers rank/percentile
// queries such as "is this solution within the top 1%?".
package dataset

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/telemetry/trace"
)

// Evaluator maps a design point to its characterization metrics. An error
// marks the point infeasible (or malformed); infeasible evaluations still
// count as spent synthesis jobs, as they would in a real flow.
type Evaluator func(param.Point) (metrics.Metrics, error)

// ContextEvaluator is an Evaluator that honors cancellation and deadlines -
// the shape a real synthesis-in-the-loop evaluation has, where a tool run
// can be killed when its budget expires. internal/resilience supervises
// evaluators in this form.
type ContextEvaluator func(context.Context, param.Point) (metrics.Metrics, error)

// AdaptContext lifts a plain Evaluator into a ContextEvaluator that checks
// for cancellation before starting. It cannot interrupt an evaluation
// already in flight - only natively context-aware evaluators can honor
// mid-run deadlines.
func AdaptContext(eval Evaluator) ContextEvaluator {
	return func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		if err := ctx.Err(); err != nil {
			return nil, MarkTransient(err)
		}
		return eval(pt)
	}
}

// MarkTransient wraps err so IsTransient reports true. Transient errors are
// retryable infrastructure failures (tool crash, timeout, garbage output) -
// the design point itself is not known infeasible, so the Cache must never
// memoize them.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

type transientError struct{ err error }

func (e *transientError) Error() string   { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// IsTransient reports whether err (or anything it wraps) is marked
// transient. Anything else - including plain infeasibility errors - is
// permanent and may be memoized.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Remote is a cluster-level cache tier a Cache consults on a local miss,
// after the shard tables and singleflight slots have ruled out a local
// answer but before the local evaluator pays for the point. The hash is
// the point's 64-bit genome identity (param.Space.Hash64) - the same
// identity the shard tables key on, and the one a cluster's consistent-
// hash ring routes by.
//
// Lookup returns ok=false when it cannot resolve the point - the ring
// owner is this process, the owning peer is unreachable, the remote tier
// is degraded - and the cache falls through to its local evaluator, so a
// remote tier can only ever add a resolution source, never remove one.
// ok=true outcomes are definitive (a characterization or a permanent
// infeasibility error) and are memoized exactly like local ones; a remote
// tier must never return transient transport failures as ok=true.
//
// Because the tier sits under the singleflight slot, a distinct design
// point costs at most one remote lookup no matter how many goroutines
// race for it - the cluster analogue of the paper's one-synthesis-job-per-
// point accounting.
type Remote interface {
	Lookup(ctx context.Context, hash uint64, pt param.Point) (m metrics.Metrics, err error, ok bool)
}

// SetRemote attaches (or, with nil, detaches) a remote cache tier
// consulted on every local miss before the local evaluator runs. Call it
// before the cache is shared across goroutines. Determinism note: for the
// deterministic evaluators the search stack uses, a remote answer is
// byte-identical to the local evaluation it replaces, so results are
// unchanged by where a point was resolved - only the cluster-level
// counters (maintained by the Remote implementation) differ.
func (c *Cache) SetRemote(r Remote) { c.remote = r }

// resolve answers one owned miss: the remote tier first (when attached
// and willing), the local evaluator otherwise. Every residual-miss path -
// single-point singleflight and batch fan-out alike - funnels through
// here, so the remote tier sees exactly the lookups that would otherwise
// spend a local evaluation.
func (c *Cache) resolve(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
	if c.remote != nil {
		if m, err, ok := c.remote.Lookup(ctx, c.hashFn(pt), pt); ok {
			return m, err
		}
	}
	return c.eval(ctx, pt)
}

// cacheShards is the number of lock stripes in a Cache. A modest power of
// two keeps the footprint small while making shard collisions rare at the
// parallelism levels the experiment harness runs at.
const cacheShards = 32

// cacheShardBits is log2(cacheShards); lookups stripe on the hash's top
// bits so the low bits stay free for the in-shard table index.
const cacheShardBits = 5

// Cache memoizes an Evaluator and counts distinct evaluations. It is safe
// for concurrent use: lookups stripe across cacheShards independently
// locked shards, and concurrent requests for the same not-yet-characterized
// point are deduplicated singleflight-style - exactly one goroutine runs
// the evaluator while the rest block on its result. A distinct design point
// therefore costs exactly one evaluator call no matter how many goroutines
// race for it, which is what the paper's synthesis-job accounting demands.
//
// A design point's identity is its 64-bit genome hash (param.Space.Hash64):
// each shard is an open-addressed table keyed on the hash that stores the
// packed genome and verifies it on every hit, so no string key is built on
// any lookup path. Canonical string keys (param.Space.Key) appear only in
// the serialized form Export and Restore speak.
//
// Error memoization is deliberate: a permanent error marks the point
// infeasible and is cached like a result (a failed synthesis job spent its
// budget and will fail again), but a transient error (IsTransient) is never
// memoized - the owning lookup's entry is withdrawn so later lookups retry
// the evaluation, and concurrent waiters receive the error without the
// shard being poisoned for the rest of the run.
type Cache struct {
	space  *param.Space
	eval   ContextEvaluator
	tracer *trace.Tracer
	batch  BatchEvaluator
	remote Remote
	// hashFn computes a point's 64-bit genome hash. It defaults to the
	// space's Hash64 and is overridable from tests to force collisions.
	hashFn func(param.Point) uint64

	distinct   atomic.Int64
	total      atomic.Int64
	dedup      atomic.Int64
	transient  atomic.Int64
	collisions atomic.Int64
	shards     [cacheShards]cacheShard

	// scratch pools batch-resolution working state (see batchScratch), so
	// steady-state batches allocate nothing beyond their result slices.
	scratch sync.Pool
}

type cacheShard struct {
	mu    sync.Mutex
	table cacheTable
}

// cacheEntry is the singleflight slot for one design point. done is closed
// by the owning goroutine once m/err are valid; everyone else waits on it.
// The entry carries its genome hash and the packed genome, the identity
// pair the open-addressed table verifies on every hit.
type cacheEntry struct {
	done   chan struct{}
	m      metrics.Metrics
	err    error
	hash   uint64
	genome []int32
}

// NewCache wraps eval for the given space.
func NewCache(space *param.Space, eval Evaluator) *Cache {
	return NewCacheContext(space, AdaptContext(eval))
}

// NewCacheContext wraps a context-aware evaluator for the given space. The
// context passed to Evaluate flows through the singleflight path into the
// evaluator, so per-evaluation deadlines and run-level cancellation reach
// the underlying tool run.
func NewCacheContext(space *param.Space, eval ContextEvaluator) *Cache {
	return &Cache{space: space, eval: eval, hashFn: space.Hash64}
}

// SetTracer attaches the trace stream: one cache record (hit, miss, or
// singleflight-dedup wait, with the shard index) per lookup plus
// transient withdrawals and collision probes, and spans covering batch
// resolution phases (dedup, probe, fan-out, merge waits) and singleflight
// wait time. Call it before the cache is shared across goroutines; nil
// (the default) disables the stream at the cost of one nil check per
// event. The stream observes lookups only - results and counters are
// identical with it on or off.
func (c *Cache) SetTracer(tr *trace.Tracer) { c.tracer = tr }

// noteCollisions folds a lookup's collision-probe count into the cache's
// counter and the trace stream. Called outside the shard lock; n is almost
// always 0 (Hash64 is injective on packable spaces).
func (c *Cache) noteCollisions(n, shi int) {
	if n == 0 {
		return
	}
	c.collisions.Add(int64(n))
	for k := 0; k < n; k++ {
		c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheCollision, Shard: shi})
	}
}

// shardForHash stripes genome hashes on their top bits, leaving the low
// bits for the in-shard open-addressed table index.
func shardForHash(h uint64) int {
	return int(h >> (64 - cacheShardBits))
}

// Evaluate returns the (possibly cached) characterization of pt.
func (c *Cache) Evaluate(pt param.Point) (metrics.Metrics, error) {
	return c.EvaluateCtx(context.Background(), pt)
}

// EvaluateCtx is Evaluate under a context: cancellation interrupts both a
// singleflight wait and (through a context-aware evaluator) the evaluation
// itself.
func (c *Cache) EvaluateCtx(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
	return c.EvaluateHashedCtx(ctx, c.hashFn(pt), pt)
}

// waitShared resolves a lookup that found an existing entry: a completed
// entry is a plain hit, an in-flight one a singleflight-deduplicated wait.
func (c *Cache) waitShared(ctx context.Context, e *cacheEntry, shi int) (metrics.Metrics, error) {
	select {
	case <-e.done:
		c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheHit, Shard: shi})
	default:
		c.dedup.Add(1)
		c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheDedup, Shard: shi})
		sp := c.tracer.Start("cache.wait")
		select {
		case <-e.done:
			sp.End()
		case <-ctx.Done():
			sp.End()
			// A canceled waiter abandons the in-flight evaluation; the
			// owner still completes (or withdraws) the entry.
			return nil, MarkTransient(ctx.Err())
		}
	}
	return e.m, e.err
}

// EvaluateHashedCtx is the single-point lookup for callers that already
// hold pt's genome hash (param.Space.Hash64): the shard table probes by
// uint64 compare, and a hit is confirmed against the stored packed genome
// before it is returned - a 64-bit collision (impossible on packable
// spaces) therefore degrades to an extra probe and a Stats().Collisions
// increment, never a wrong answer. Transient evaluator errors
// (IsTransient) are delivered to the callers that observed them but never
// memoized; permanent errors and results are cached and counted as
// distinct evaluations.
func (c *Cache) EvaluateHashedCtx(ctx context.Context, h uint64, pt param.Point) (metrics.Metrics, error) {
	c.total.Add(1)
	shi := shardForHash(h)
	sh := &c.shards[shi]
	sh.mu.Lock()
	found, probes := sh.table.lookup(h, pt)
	if found != nil {
		sh.mu.Unlock()
		c.noteCollisions(probes, shi)
		return c.waitShared(ctx, found, shi)
	}
	e := &cacheEntry{done: make(chan struct{}), hash: h, genome: c.space.AppendPacked(nil, pt)}
	sh.table.insert(e)
	sh.mu.Unlock()
	c.noteCollisions(probes, shi)
	c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheMiss, Shard: shi})

	// This goroutine owns the evaluation; concurrent requesters for the
	// same point block on e.done instead of re-running the evaluator. A
	// transient outcome is withdrawn before done closes, so no later lookup
	// inherits a poisoned entry.
	e.m, e.err = c.resolve(ctx, pt)
	if e.err != nil && IsTransient(e.err) {
		sh.mu.Lock()
		sh.table.remove(e)
		sh.mu.Unlock()
		c.transient.Add(1)
		c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheTransient, Shard: shi})
		close(e.done)
		return e.m, e.err
	}
	c.distinct.Add(1)
	close(e.done)
	return e.m, e.err
}

// DistinctEvaluations returns how many distinct design points have been
// evaluated - the paper's search-cost metric.
func (c *Cache) DistinctEvaluations() int {
	return int(c.distinct.Load())
}

// TotalQueries returns how many evaluations were requested, including cache
// hits.
func (c *Cache) TotalQueries() int {
	return int(c.total.Load())
}

// DedupedWaits returns how many lookups blocked on another goroutine's
// in-flight evaluation of the same point. Unlike Stats, this depends on
// scheduling and therefore varies across parallelism levels.
func (c *Cache) DedupedWaits() int {
	return int(c.dedup.Load())
}

// TransientFailures returns how many evaluations ended in a transient
// (withdrawn, never-memoized) error.
func (c *Cache) TransientFailures() int {
	return int(c.transient.Load())
}

// HashCollisions returns how many probe steps passed an equal-hash entry
// holding a different genome - the verification fallback firing. Always 0
// on packable spaces (where Hash64 is injective).
func (c *Cache) HashCollisions() int {
	return int(c.collisions.Load())
}

// CacheStats is one consistent accounting snapshot of a Cache. All fields
// are deterministic for a deterministic workload: Total counts lookups,
// Distinct counts spent evaluator calls (the paper's synthesis-job
// metric), and Hits = Total - Distinct counts lookups answered without an
// evaluator call of their own (including singleflight waits).
type CacheStats struct {
	Distinct int
	Total    int
	Hits     int
	// Transient counts evaluations that ended in a withdrawn transient
	// error (retryable infrastructure failures, never memoized). 0 on any
	// healthy run.
	Transient int
	// Collisions counts lookups that probed past an equal-hash entry
	// holding a different genome before resolving. 0 whenever Hash64 is
	// injective for the space (every packable space); when nonzero, like
	// DedupedWaits, the exact count can
	// depend on scheduling. Collisions are a performance event only -
	// genome verification keeps results exact.
	Collisions int
	// HitRate is Hits/Total, 0 when no lookups happened.
	HitRate float64
}

// Stats returns a single consistent snapshot of the cache counters,
// replacing racy back-to-back DistinctEvaluations/TotalQueries reads. The
// counters are re-read until the total is stable across the read (bounded
// retries), and hits are clamped so in-flight evaluations can never
// produce a negative count.
func (c *Cache) Stats() CacheStats {
	var total, distinct, transient int64
	for attempt := 0; ; attempt++ {
		total = c.total.Load()
		distinct = c.distinct.Load()
		transient = c.transient.Load()
		if c.total.Load() == total || attempt >= 8 {
			break
		}
	}
	hits := total - distinct - transient
	if hits < 0 {
		hits = 0
	}
	st := CacheStats{
		Distinct:   int(distinct),
		Total:      int(total),
		Hits:       int(hits),
		Transient:  int(transient),
		Collisions: int(c.collisions.Load()),
	}
	if total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// Reset clears the cache and counters. It must not race with in-flight
// Evaluate calls.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = cacheTable{}
		sh.mu.Unlock()
	}
	c.distinct.Store(0)
	c.total.Store(0)
	c.dedup.Store(0)
	c.transient.Store(0)
	c.collisions.Store(0)
}

// CacheEntrySnapshot is one memoized evaluation in a CacheSnapshot: the
// point's key plus either its metrics or the permanent error string it
// failed with.
type CacheEntrySnapshot struct {
	Key     string
	Metrics metrics.Metrics
	Err     string
}

// CacheSnapshot is a consistent export of a Cache's memoized contents and
// counters, the unit of state a run checkpoint persists. Entries are sorted
// by key, so two snapshots of identical caches are deeply equal.
type CacheSnapshot struct {
	Entries   []CacheEntrySnapshot
	Distinct  int64
	Total     int64
	Dedup     int64
	Transient int64
}

// Export snapshots the cache for checkpointing. Only completed entries are
// captured (in-flight singleflight evaluations are skipped); callers that
// need an exact snapshot - like the GA engine at a generation boundary -
// export when no evaluations are in flight. Metrics maps are shared, not
// copied: memoized metrics are immutable by contract.
//
// Snapshots speak canonical string keys: each entry's key is rebuilt from
// its stored packed genome (a cold path), so genome hashes - process-local
// identities, not stable serialized state - never reach disk.
func (c *Cache) Export() CacheSnapshot {
	snap := CacheSnapshot{
		Distinct:  c.distinct.Load(),
		Total:     c.total.Load(),
		Dedup:     c.dedup.Load(),
		Transient: c.transient.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table.each(func(e *cacheEntry) {
			select {
			case <-e.done:
			default:
				return // in flight; not yet a characterization
			}
			es := CacheEntrySnapshot{Key: c.space.Key(c.space.UnpackPoint(e.genome)), Metrics: e.m}
			if e.err != nil {
				es.Err = e.err.Error()
			}
			snap.Entries = append(snap.Entries, es)
		})
		sh.mu.Unlock()
	}
	sort.Slice(snap.Entries, func(a, b int) bool { return snap.Entries[a].Key < snap.Entries[b].Key })
	return snap
}

// Restore replaces the cache's contents and counters with a snapshot
// previously produced by Export - the resume half of checkpointing. Keys
// are validated against the cache's space and rebuilt into genome hashes
// and packed genomes. It must not race with in-flight
// Evaluate calls. The collision counter restarts at zero: collisions are a
// process-local probe statistic, not persisted state.
func (c *Cache) Restore(snap CacheSnapshot) error {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = cacheTable{}
		sh.mu.Unlock()
	}
	closed := make(chan struct{})
	close(closed)
	for _, es := range snap.Entries {
		pt, err := c.space.ParseKey(es.Key)
		if err != nil {
			return fmt.Errorf("dataset: restore: %w", err)
		}
		e := &cacheEntry{done: closed, m: es.Metrics, hash: c.hashFn(pt), genome: c.space.AppendPacked(nil, pt)}
		if es.Err != "" {
			e.err = errors.New(es.Err)
		}
		sh := &c.shards[shardForHash(e.hash)]
		sh.mu.Lock()
		sh.table.insert(e)
		sh.mu.Unlock()
	}
	c.distinct.Store(snap.Distinct)
	c.total.Store(snap.Total)
	c.dedup.Store(snap.Dedup)
	c.transient.Store(snap.Transient)
	c.collisions.Store(0)
	return nil
}

// Dataset is a fully enumerated characterization of a design space:
// feasible points with their metrics, plus the count of infeasible points.
type Dataset struct {
	space      *param.Space
	byKey      map[string]metrics.Metrics
	keys       []string // feasible keys in enumeration order
	infeasible int

	mu     sync.Mutex
	sorted map[string][]float64 // objective name -> sorted values (lazy)
}

// Build enumerates the whole space through eval. Infeasible points are
// counted but not stored. Intended for spaces up to a few hundred thousand
// points.
func Build(space *param.Space, eval Evaluator) (*Dataset, error) {
	return BuildParallel(space, eval, 1)
}

// maxParallelBuild bounds the per-point result buffer a parallel Build will
// allocate; larger spaces fall back to sequential streaming enumeration.
const maxParallelBuild = 1 << 24

// BuildParallel is Build with up to parallelism concurrent evaluator calls.
// Points are assembled in flat enumeration order afterwards, so the
// resulting dataset is identical to Build's at any parallelism level.
func BuildParallel(space *param.Space, eval Evaluator, parallelism int) (*Dataset, error) {
	d := &Dataset{
		space:  space,
		byKey:  make(map[string]metrics.Metrics),
		sorted: make(map[string][]float64),
	}
	if n64 := space.Cardinality(); parallelism > 1 && n64 > 1 && n64 <= maxParallelBuild {
		n := int(n64)
		type outcome struct {
			m   metrics.Metrics
			err error
		}
		results, _ := pool.Map(parallelism, n, func(i int) (outcome, error) {
			var o outcome
			o.m, o.err = eval(space.PointAt(uint64(i)))
			return o, nil
		}, nil)
		for i, o := range results {
			if o.err != nil {
				d.infeasible++
				continue
			}
			pt := space.PointAt(uint64(i))
			if o.m == nil {
				return nil, fmt.Errorf("dataset: evaluator returned nil metrics without error at %s", space.Describe(pt))
			}
			key := space.Key(pt)
			d.byKey[key] = o.m
			d.keys = append(d.keys, key)
		}
	} else {
		var firstErr error
		space.Enumerate(func(pt param.Point) bool {
			m, err := eval(pt)
			if err != nil {
				d.infeasible++
				return true
			}
			if m == nil {
				firstErr = fmt.Errorf("dataset: evaluator returned nil metrics without error at %s", space.Describe(pt))
				return false
			}
			key := space.Key(pt)
			d.byKey[key] = m
			d.keys = append(d.keys, key)
			return true
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	if len(d.byKey) == 0 {
		return nil, errors.New("dataset: no feasible points")
	}
	return d, nil
}

// Space returns the dataset's design space.
func (d *Dataset) Space() *param.Space { return d.space }

// Size returns the number of feasible characterized points.
func (d *Dataset) Size() int { return len(d.byKey) }

// Infeasible returns the number of infeasible points encountered.
func (d *Dataset) Infeasible() int { return d.infeasible }

// Lookup returns the stored metrics for pt.
func (d *Dataset) Lookup(pt param.Point) (metrics.Metrics, bool) {
	m, ok := d.byKey[d.space.Key(pt)]
	return m, ok
}

// Evaluator returns an Evaluator backed by the dataset (missing points are
// reported infeasible). This mirrors the paper's setup of running the GA
// against pre-characterized datasets.
func (d *Dataset) Evaluator() Evaluator {
	return func(pt param.Point) (metrics.Metrics, error) {
		if m, ok := d.Lookup(pt); ok {
			return m, nil
		}
		return nil, fmt.Errorf("dataset: point %s infeasible or unknown", d.space.Key(pt))
	}
}

// Each calls fn for every feasible point in enumeration order.
func (d *Dataset) Each(fn func(pt param.Point, m metrics.Metrics) bool) {
	for _, key := range d.keys {
		pt, err := d.space.ParseKey(key)
		if err != nil {
			panic(err) // keys were produced by this space
		}
		if !fn(pt, d.byKey[key]) {
			return
		}
	}
}

// values returns the dataset's objective values sorted from best to worst.
func (d *Dataset) values(obj metrics.Objective) []float64 {
	name := obj.String()
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.sorted[name]; ok {
		return v
	}
	vals := make([]float64, 0, len(d.byKey))
	for _, key := range d.keys {
		if v, ok := obj.Value(d.byKey[key]); ok {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if obj.Direction() == metrics.Maximize {
		for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	d.sorted[name] = vals
	return vals
}

// Best returns the best feasible point and objective value in the dataset.
func (d *Dataset) Best(obj metrics.Objective) (param.Point, float64) {
	bestVal := obj.Worst()
	var bestKey string
	for _, key := range d.keys {
		if v, ok := obj.Value(d.byKey[key]); ok && obj.Better(v, bestVal) {
			bestVal, bestKey = v, key
		}
	}
	if bestKey == "" {
		return nil, bestVal
	}
	pt, _ := d.space.ParseKey(bestKey)
	return pt, bestVal
}

// Rank returns how many feasible designs are strictly better than value
// under obj (0 means value ties the dataset optimum or beats it).
func (d *Dataset) Rank(obj metrics.Objective, value float64) int {
	vals := d.values(obj) // best..worst
	// Count prefix of vals strictly better than value.
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if obj.Better(vals[mid], value) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Score converts an objective value into the paper's "design solution
// score (in %)": 100% means no feasible design is strictly better; a value
// in the top 1% scores >= 99.
func (d *Dataset) Score(obj metrics.Objective, value float64) float64 {
	n := len(d.values(obj))
	if n == 0 {
		return 0
	}
	return 100 * (1 - float64(d.Rank(obj, value))/float64(n))
}

// InTopPercent reports whether value is within the best pct% of feasible
// designs (pct in (0,100]).
func (d *Dataset) InTopPercent(obj metrics.Objective, value, pct float64) bool {
	n := len(d.values(obj))
	if n == 0 {
		return false
	}
	limit := int(math.Ceil(float64(n) * pct / 100))
	return d.Rank(obj, value) < limit
}

// Quantile returns the objective value at quantile q of the best-to-worst
// ordering (q=0 is the optimum, q=1 the worst feasible design).
func (d *Dataset) Quantile(obj metrics.Objective, q float64) float64 {
	vals := d.values(obj)
	if len(vals) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	return vals[int(q*float64(len(vals)-1))]
}

// CountWithin returns how many feasible designs are at least as good as
// value under obj (including ties). Used for random-sampling expectations.
func (d *Dataset) CountWithin(obj metrics.Objective, value float64) int {
	vals := d.values(obj)
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := (lo + hi) / 2
		// Better-or-equal to value <=> not strictly worse.
		if obj.Better(value, vals[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ExpectedRandomDraws returns the expected number of uniform random draws
// (without replacement, over the full space including infeasible points)
// needed to hit a design at least as good as value: (n+1)/(k+1).
func (d *Dataset) ExpectedRandomDraws(obj metrics.Objective, value float64) float64 {
	k := d.CountWithin(obj, value)
	n := d.Size() + d.Infeasible()
	return float64(n+1) / float64(k+1)
}

// ---- CSV persistence -------------------------------------------------------

// WriteCSV writes the dataset as CSV: a header of parameter names and metric
// names, then one row per feasible point (parameter string values followed
// by metric values).
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Collect the union of metric names, sorted, for stable columns.
	nameSet := map[string]bool{}
	for _, key := range d.keys {
		for name := range d.byKey[key] {
			nameSet[name] = true
		}
	}
	metricNames := make([]string, 0, len(nameSet))
	for name := range nameSet {
		metricNames = append(metricNames, name)
	}
	sort.Strings(metricNames)

	cols := append(append([]string{}, d.space.Names()...), metricNames...)
	if _, err := fmt.Fprintln(bw, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, key := range d.keys {
		pt, _ := d.space.ParseKey(key)
		row := make([]string, 0, len(cols))
		for i := 0; i < d.space.Len(); i++ {
			row = append(row, d.space.Param(i).StringValue(pt[i]))
		}
		m := d.byKey[key]
		for _, name := range metricNames {
			if v, ok := m[name]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(bw, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a dataset previously written by WriteCSV for the given
// space.
func ReadCSV(space *param.Space, r io.Reader) (*Dataset, error) {
	d := &Dataset{
		space:  space,
		byKey:  make(map[string]metrics.Metrics),
		sorted: make(map[string][]float64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, errors.New("dataset: empty CSV")
	}
	cols := strings.Split(sc.Text(), ",")
	np := space.Len()
	if len(cols) < np {
		return nil, fmt.Errorf("dataset: CSV has %d columns, space needs %d parameters", len(cols), np)
	}
	for i, name := range space.Names() {
		if cols[i] != name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, want parameter %q", i, cols[i], name)
		}
	}
	metricNames := cols[np:]
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(cols) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), len(cols))
		}
		pt := make(param.Point, np)
		for i := 0; i < np; i++ {
			idx := space.Param(i).IndexOf(fields[i])
			if idx < 0 {
				return nil, fmt.Errorf("dataset: line %d: unknown value %q for %s", line, fields[i], space.Param(i).Name())
			}
			pt[i] = idx
		}
		m := make(metrics.Metrics, len(metricNames))
		for j, name := range metricNames {
			f := fields[np+j]
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad %s value %q: %v", line, name, f, err)
			}
			m[name] = v
		}
		key := space.Key(pt)
		if _, dup := d.byKey[key]; dup {
			return nil, fmt.Errorf("dataset: line %d: duplicate point %s", line, key)
		}
		d.byKey[key] = m
		d.keys = append(d.keys, key)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(d.byKey) == 0 {
		return nil, errors.New("dataset: CSV contains no points")
	}
	d.infeasible = int(space.Cardinality()) - len(d.byKey)
	return d, nil
}

// Sample characterizes n distinct uniformly drawn points of the space (the
// practical alternative to Build when the space is too large to enumerate -
// the situation the paper's IP users actually face). Infeasible draws count
// toward the budget, like failed synthesis jobs. Fails if fewer than two
// feasible points are found within the budget.
func Sample(space *param.Space, eval Evaluator, n int, seed int64) (*Dataset, error) {
	if n < 2 {
		return nil, fmt.Errorf("dataset: sample size %d < 2", n)
	}
	if space.Cardinality() < uint64(n) {
		return Build(space, eval)
	}
	d := &Dataset{
		space:  space,
		byKey:  make(map[string]metrics.Metrics),
		sorted: make(map[string][]float64),
	}
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	for len(seen) < n {
		pt := space.Random(r)
		key := space.Key(pt)
		if seen[key] {
			continue
		}
		seen[key] = true
		m, err := eval(pt)
		if err != nil {
			d.infeasible++
			continue
		}
		d.byKey[key] = m
		d.keys = append(d.keys, key)
	}
	if len(d.byKey) < 2 {
		return nil, fmt.Errorf("dataset: only %d feasible points in a %d-point sample", len(d.byKey), n)
	}
	return d, nil
}
