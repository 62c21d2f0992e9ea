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

// Remote is a cluster-level cache tier a Cache hands its misses to, after
// the shard tables and singleflight slots have ruled out a local answer
// but before the local evaluator pays for the points. A hash is the
// point's 64-bit genome identity (param.Space.Hash64) - the same identity
// the shard tables key on, and the one a cluster's consistent-hash ring
// routes by.
//
// Forwards decides, for each lookup a batch probes, whether the tier
// would resolve a miss on it elsewhere: it must be cheap and must not
// block. A batch
// first evaluates and completes the misses the tier keeps, then calls
// LookupBatch once with all the forwarded ones. That order matters in a
// cluster: a peer's lookup served from this cache waits only on points
// this cache keeps, so it never waits on this cache's own remote lookups.
//
// LookupBatch answers what it can: for each k it either sets ok[k] and
// writes a definitive ms[k]/errs[k] (a characterization or a permanent
// infeasibility error, memoized exactly like a local outcome), or leaves
// ok[k] false - the owner is unreachable, declines, or the tier is
// degraded - and the cache evaluates pts[k] locally. A remote tier can
// therefore only ever add a resolution source, never remove one, and it
// must never report a transient transport failure as ok.
//
// Because the tier sits under the singleflight slot, a distinct design
// point costs at most one remote lookup no matter how many goroutines
// race for it - the cluster analogue of the paper's one-synthesis-job-per-
// point accounting.
type Remote interface {
	Forwards(ctx context.Context, hash uint64) bool
	LookupBatch(ctx context.Context, hashes []uint64, pts []param.Point, ms []metrics.Metrics, errs []error, ok []bool)
}

// SetRemote attaches (or, with nil, detaches) a remote cache tier
// consulted on local misses before the local evaluator runs. Call it
// before the cache is shared across goroutines. Determinism note: for the
// deterministic evaluators the search stack uses, a remote answer is
// byte-identical to the local evaluation it replaces, so results are
// unchanged by where a point was resolved - only the cluster-level
// counters (maintained by the Remote implementation) differ.
func (c *Cache) SetRemote(r Remote) { c.remote = r }

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
// point are deduplicated singleflight-style - exactly one caller evaluates
// the point while the rest wait on its result. A distinct design point
// therefore costs exactly one evaluator call no matter how many goroutines
// race for it, which is what the paper's synthesis-job accounting demands.
// Every lookup goes through one resolver, EvaluateBatchCtx; Evaluate and
// EvaluateCtx are batches of one.
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
// memoized - the owning batch withdraws the entry so later lookups retry
// the evaluation, and concurrent waiters receive the error without the
// shard being poisoned for the rest of the run.
type Cache struct {
	space  *param.Space
	eval   ContextEvaluator
	tracer *trace.Tracer
	parent *Cache
	remote Remote
	// hashFn computes a point's 64-bit genome hash. It defaults to the
	// space's Hash64 and is overridable from tests to force collisions.
	hashFn func(param.Point) uint64

	distinct   atomic.Int64
	total      atomic.Int64
	dedup      atomic.Int64
	transient  atomic.Int64
	collisions atomic.Int64
	// seq numbers completions: each owning batch stamps the next value on
	// the group of entries it completes (see publish), so a CacheMark can
	// tell the entries completed before it from those completed after.
	seq    atomic.Uint64
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	table cacheTable
}

// cacheEntry is the singleflight slot for one design point. Its
// completion's done channel is closed by the owning batch once m/err are
// valid; everyone else waits on it. The owner shares one completion record
// across the entries it completes together, and that pointer identifies
// the owner (see missGroup). The entry carries its genome hash and the
// packed genome, the identity pair the open-addressed table verifies on
// every hit. Keeping the completion stamp in the shared record, not here,
// holds an entry at 64 bytes.
type cacheEntry struct {
	comp   *completion
	m      metrics.Metrics
	err    error
	hash   uint64
	genome []int32
}

// completion is shared by the entries one batch completes together. seq
// is the cache's completion sequence number, stamped just before done
// closes and never written again, so it may be read by anyone who has
// seen done closed. Restored entries share a record with seq 0.
type completion struct {
	done chan struct{}
	seq  uint64
}

// completed reports whether e's outcome is valid.
func (e *cacheEntry) completed() bool {
	select {
	case <-e.comp.done:
		return true
	default:
		return false
	}
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

// SetTracer attaches the trace stream: spans covering each batch's
// resolution phases (probe, miss fan-out, waits on points in flight
// elsewhere) and the fan-out's pool records. Lookup outcomes are not
// streamed: the cache counts them itself (Stats, DedupedWaits,
// TransientFailures, HashCollisions), and a GA engine reports each
// generation's share of its cache's counts on the generation record.
// Call it before the cache is shared across goroutines; nil (the
// default) disables the stream at the cost of one nil check per span.
// The stream observes lookups only - results and counters are identical
// with it on or off.
func (c *Cache) SetTracer(tr *trace.Tracer) { c.tracer = tr }

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
// itself. It is a batch of one through EvaluateBatchCtx.
func (c *Cache) EvaluateCtx(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
	pts := [1]param.Point{pt}
	var ms [1]metrics.Metrics
	var errs [1]error
	_ = c.EvaluateBatchCtx(ctx, nil, pts[:], ms[:], errs[:], 1)
	return ms[0], errs[0]
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
	c.seq.Store(0)
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

// CacheMark records a quiescent cache in O(1): its counters and the
// completion sequence number. ExportMark(m) later renders the snapshot
// Export would have returned when m was taken, because completed entries
// are never removed (transient outcomes are withdrawn before they
// complete) and every entry completed after m carries a larger stamp. A
// mark is valid until the cache is Reset or Restored.
type CacheMark struct {
	seq                               uint64
	distinct, total, dedup, transient int64
}

// Mark records the cache's current state for a later ExportMark. Like
// Export, it must be taken when no lookup is in flight - the GA engine
// takes one at every generation boundary of a checkpointing run.
func (c *Cache) Mark() CacheMark {
	return CacheMark{
		seq:       c.seq.Load(),
		distinct:  c.distinct.Load(),
		total:     c.total.Load(),
		dedup:     c.dedup.Load(),
		transient: c.transient.Load(),
	}
}

// Export snapshots the cache for checkpointing: ExportMark of a mark taken
// now. Callers that need an exact snapshot export when no evaluations are
// in flight.
func (c *Cache) Export() CacheSnapshot { return c.ExportMark(c.Mark()) }

// ExportMark snapshots the cache as it stood at mark m: m's counters and
// the entries completed no later than m. Entries still in flight, and
// entries completed since - including those a canceled batch publishes
// after the mark - are left out. Metrics maps are shared, not copied:
// memoized metrics are immutable by contract.
//
// Snapshots speak canonical string keys: each entry's key is rebuilt from
// its stored packed genome (a cold path), so genome hashes - process-local
// identities, not stable serialized state - never reach disk.
func (c *Cache) ExportMark(m CacheMark) CacheSnapshot {
	snap := CacheSnapshot{
		Distinct:  m.distinct,
		Total:     m.total,
		Dedup:     m.dedup,
		Transient: m.transient,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table.each(func(e *cacheEntry) {
			if !e.completed() || e.comp.seq > m.seq {
				return // in flight, or completed after the mark
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
// and packed genomes; a key that names the same point twice fails the
// restore, since Export never writes one and a tampered snapshot would
// otherwise resume on whichever entry the table happens to probe first.
// It must not race with in-flight Evaluate calls. The collision counter
// restarts at zero: collisions are a process-local probe statistic, not
// persisted state.
func (c *Cache) Restore(snap CacheSnapshot) error {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = cacheTable{}
		sh.mu.Unlock()
	}
	restored := &completion{done: make(chan struct{})}
	close(restored.done)
	for _, es := range snap.Entries {
		pt, err := c.space.ParseKey(es.Key)
		if err != nil {
			return fmt.Errorf("dataset: restore: %w", err)
		}
		e := &cacheEntry{comp: restored, m: es.Metrics, hash: c.hashFn(pt), genome: c.space.AppendPacked(nil, pt)}
		if es.Err != "" {
			e.err = errors.New(es.Err)
		}
		sh := &c.shards[shardForHash(e.hash)]
		sh.mu.Lock()
		dup, _ := sh.table.lookup(e.hash, pt)
		if dup == nil {
			sh.table.insert(e)
		}
		sh.mu.Unlock()
		if dup != nil {
			return fmt.Errorf("dataset: restore: duplicate entry for %s", es.Key)
		}
	}
	c.distinct.Store(snap.Distinct)
	c.total.Store(snap.Total)
	c.dedup.Store(snap.Dedup)
	c.transient.Store(snap.Transient)
	c.collisions.Store(0)
	return nil
}

// Dataset is a fully enumerated characterization of a design space: one
// metrics slot per point, indexed by the point's flat index (PointAt's
// numbering), where nil marks an infeasible or absent point.
type Dataset struct {
	space *param.Space
	slots []metrics.Metrics // by flat index; nil = infeasible or absent
	size  int               // non-nil slots

	mu     sync.Mutex
	sorted map[string][]float64 // objective name -> sorted values (lazy)
}

// maxTablePoints bounds the spaces a Dataset indexes: a larger space is
// refused rather than given one slot per point.
const maxTablePoints = 1 << 24

// tableSize returns the slot count a table over space needs, refusing
// spaces above maxTablePoints.
func tableSize(space *param.Space) (int, error) {
	n := space.Cardinality()
	if n > maxTablePoints {
		return 0, fmt.Errorf("dataset: space has %d points, more than the %d a table indexes", n, maxTablePoints)
	}
	return int(n), nil
}

// newTable wraps slots, one per point of space in flat order.
func newTable(space *param.Space, slots []metrics.Metrics) *Dataset {
	d := &Dataset{space: space, slots: slots, sorted: make(map[string][]float64)}
	for _, m := range slots {
		if m != nil {
			d.size++
		}
	}
	return d
}

// Build enumerates the whole space through eval. Infeasible points are
// counted but not stored. Spaces above 2^24 points are refused.
func Build(space *param.Space, eval Evaluator) (*Dataset, error) {
	return BuildParallel(space, eval, 1)
}

// BuildParallel is Build with up to parallelism concurrent evaluator calls.
// Each result lands in its point's slot, so the dataset is identical to
// Build's at any parallelism level.
func BuildParallel(space *param.Space, eval Evaluator, parallelism int) (*Dataset, error) {
	n, err := tableSize(space)
	if err != nil {
		return nil, err
	}
	slots, err := pool.Map(parallelism, n, func(i int) (metrics.Metrics, error) {
		pt := space.PointAt(uint64(i))
		switch m, err := eval(pt); {
		case err != nil:
			return nil, nil // infeasible: the slot stays nil
		case m == nil:
			return nil, fmt.Errorf("dataset: evaluator returned nil metrics without error at %s", space.Describe(pt))
		default:
			return m, nil
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	d := newTable(space, slots)
	if d.size == 0 {
		return nil, errors.New("dataset: no feasible points")
	}
	return d, nil
}

// Space returns the dataset's design space.
func (d *Dataset) Space() *param.Space { return d.space }

// Size returns the number of feasible characterized points.
func (d *Dataset) Size() int { return d.size }

// Infeasible returns the number of infeasible (or absent) points.
func (d *Dataset) Infeasible() int { return len(d.slots) - d.size }

// Lookup returns the stored metrics for pt: its flat index, then one slot
// read. Like Space.Key it panics with Space.Validate's error on a
// malformed point.
func (d *Dataset) Lookup(pt param.Point) (metrics.Metrics, bool) {
	m := d.slots[d.space.FlatIndex(pt)]
	return m, m != nil
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

// Each calls fn for every feasible point in flat enumeration order,
// stopping early if fn returns false. The Point passed to fn is reused
// between calls; clone it to retain it.
func (d *Dataset) Each(fn func(pt param.Point, m metrics.Metrics) bool) {
	i := 0
	d.space.Enumerate(func(pt param.Point) bool {
		m := d.slots[i]
		i++
		return m == nil || fn(pt, m)
	})
}

// values returns the dataset's objective values sorted from best to worst.
func (d *Dataset) values(obj metrics.Objective) []float64 {
	name := obj.String()
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.sorted[name]; ok {
		return v
	}
	vals := make([]float64, 0, d.size)
	for _, m := range d.slots {
		if v, ok := obj.Value(m); ok {
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

// Best returns the best feasible point and objective value in the dataset,
// the first in flat order on a tie.
func (d *Dataset) Best(obj metrics.Objective) (param.Point, float64) {
	bestVal, best := obj.Worst(), -1
	for i, m := range d.slots {
		if v, ok := obj.Value(m); ok && obj.Better(v, bestVal) {
			bestVal, best = v, i
		}
	}
	if best < 0 {
		return nil, bestVal
	}
	return d.space.PointAt(uint64(best)), bestVal
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
// names, then one row per feasible point in flat order (parameter string
// values followed by metric values).
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Collect the union of metric names, sorted, for stable columns.
	nameSet := map[string]bool{}
	for _, m := range d.slots {
		for name := range m {
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
	var err error
	row := make([]string, 0, len(cols))
	d.Each(func(pt param.Point, m metrics.Metrics) bool {
		row = row[:0]
		for i, v := range pt {
			row = append(row, d.space.Param(i).StringValue(v))
		}
		for _, name := range metricNames {
			if v, ok := m[name]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		_, err = fmt.Fprintln(bw, strings.Join(row, ","))
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV reads a dataset previously written by WriteCSV for the given
// space. It fails closed: a header that repeats a column, or names a metric
// with an empty name or one holding a carriage return (which line reading
// strips), is rejected, as is a row naming a point twice.
func ReadCSV(space *param.Space, r io.Reader) (*Dataset, error) {
	n, err := tableSize(space)
	if err != nil {
		return nil, err
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
	seen := make(map[string]bool, len(cols))
	for i, name := range cols {
		if i < np && name != space.Param(i).Name() {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, want parameter %q", i, name, space.Param(i).Name())
		}
		if i >= np && (name == "" || strings.ContainsRune(name, '\r')) {
			return nil, fmt.Errorf("dataset: line 1: column %d has unusable metric name %q", i, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("dataset: line 1: column %q repeats", name)
		}
		seen[name] = true
	}
	metricNames := cols[np:]
	slots := make([]metrics.Metrics, n)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(cols) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), len(cols))
		}
		idx := 0
		for i := 0; i < np; i++ {
			p := space.Param(i)
			v := p.IndexOf(fields[i])
			if v < 0 {
				return nil, fmt.Errorf("dataset: line %d: unknown value %q for %s", line, fields[i], p.Name())
			}
			idx = idx*p.Card() + v
		}
		if slots[idx] != nil {
			return nil, fmt.Errorf("dataset: line %d: duplicate point %s", line, space.Key(space.PointAt(uint64(idx))))
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
		slots[idx] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := newTable(space, slots)
	if d.size == 0 {
		return nil, errors.New("dataset: CSV contains no points")
	}
	return d, nil
}
