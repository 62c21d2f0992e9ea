// Batched evaluation pipeline.
//
// The Nautilus deployment model makes evaluation the cost that dwarfs every
// other: one design point is a minutes-to-hours synthesis job, and a GA
// generation asks for a whole population of them at once. Dispatching those
// requests one point at a time - a lock acquisition, a singleflight slot,
// and a goroutine handoff per point - is pure overhead the moment the
// answers come from a warm cache. The batch path below keeps the cache's
// accounting and singleflight semantics bit-for-bit, but amortizes the
// bookkeeping from O(points) to O(batches): one counter update per batch,
// one lock acquisition per touched shard, and one pool fan-out over only
// the residual misses. A batch is resolved entirely on 64-bit genome
// hashes - no string key is built anywhere on the path, and every hit is
// verified against the stored packed genome.
package dataset

import (
	"context"
	"fmt"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/telemetry/trace"
)

// BatchEvaluator characterizes a whole batch of design points in one call,
// returning exactly one (metrics, error) pair per point, index-aligned with
// pts. It is the contract a generation-at-a-time dispatcher evaluates
// against: implementations may layer another cache underneath (the
// server's process-wide shared cache) or forward the batch to a backend
// that genuinely evaluates in bulk. Per-item errors follow the Evaluator
// convention - permanent means infeasible, transient (IsTransient) means
// retry later, never memoize.
type BatchEvaluator func(ctx context.Context, pts []param.Point) ([]metrics.Metrics, []error)

// SetBatchBackend routes the batch path's residual cache misses through b in
// one call instead of fanning them out over the cache's own single-point
// evaluator. This is how caches stack: a session-private cache hands its
// misses to the process-wide shared cache as a single batch, so concurrent
// sessions searching the same space merge their in-flight generations
// instead of colliding point by point. Call it before the cache is shared
// across goroutines; a nil backend restores the single-point fan-out.
func (c *Cache) SetBatchBackend(b BatchEvaluator) {
	c.batch = b
}

// EvaluateBatchCtx is the batch analogue of EvaluateCtx: one call resolves
// every point of the batch. See EvaluateBatchHashedCtx for the per-item
// semantics.
func (c *Cache) EvaluateBatchCtx(ctx context.Context, pts []param.Point, par int) ([]metrics.Metrics, []error, error) {
	return c.EvaluateBatchHashedCtx(ctx, nil, pts, par)
}

// EvaluateBatchHashedCtx resolves a whole batch of lookups in one sharded
// pass: hashes[i] must be pts[i]'s genome hash (param.Space.Hash64), and a
// nil hashes slice asks the cache to compute them. Semantics per item are
// exactly EvaluateHashedCtx's - the batch and single-point paths are
// interchangeable and their deterministic accounting (Stats) is identical
// for the same request stream - but the costs are amortized:
//
//   - one Total update per batch instead of one per lookup;
//   - duplicate points within the batch collapse to a single resolution
//     before any lock is taken;
//   - each cache shard is locked once for all its points, not once per
//     point;
//   - only the residual misses (not in the cache, not in flight anywhere)
//     are evaluated, fanned out on up to par pool workers - or handed to
//     the batch backend (SetBatchBackend) in a single call;
//   - points another goroutine is already evaluating are merged: the
//     batch waits on the in-flight result instead of re-dispatching.
//
// The returned slices are index-aligned with pts. The final error is nil
// unless ctx was canceled, in which case the batch is incomplete and must
// be discarded (per-item transient errors mark the affected items).
func (c *Cache) EvaluateBatchHashedCtx(ctx context.Context, hashes []uint64, pts []param.Point, par int) ([]metrics.Metrics, []error, error) {
	if hashes != nil && len(hashes) != len(pts) {
		return nil, nil, fmt.Errorf("dataset: batch has %d hashes but %d points", len(hashes), len(pts))
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	if hashes == nil {
		if cap(sc.hashes) < len(pts) {
			sc.hashes = make([]uint64, len(pts))
		}
		hashes = sc.hashes[:len(pts)]
		for i, pt := range pts {
			hashes[i] = c.hashFn(pt)
		}
	}
	return c.batchResolve(ctx, sc, hashes, pts, par)
}

// batchScratch is one batch resolution's reusable working state. It lives
// in the cache's sync.Pool: after the first few generations every slice has
// reached its steady-state capacity and a whole-batch resolution performs
// no allocations beyond the two result slices it returns.
type batchScratch struct {
	uniq     []batchLookup
	dup      []int
	hashes   []uint64
	uniqIdx  map[uint64]int
	byShard  [cacheShards][]int
	withdraw [cacheShards][]int
	owned    []int
	opts     []param.Point
	oms      []metrics.Metrics
	oerrs    []error
	ran      []bool
}

// getScratch fetches (or lazily creates) a pooled batchScratch.
func (c *Cache) getScratch() *batchScratch {
	if sc, ok := c.scratch.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{}
}

// putScratch drops every reference the scratch holds (points and cache
// entries must not be retained by the pool) and returns it for reuse.
func (c *Cache) putScratch(sc *batchScratch) {
	clear(sc.uniq)
	sc.uniq = sc.uniq[:0]
	sc.hashes = sc.hashes[:0]
	clear(sc.opts)
	sc.opts = sc.opts[:0]
	clear(sc.oms)
	sc.oms = sc.oms[:0]
	clear(sc.oerrs)
	sc.oerrs = sc.oerrs[:0]
	sc.dup = sc.dup[:0]
	sc.owned = sc.owned[:0]
	sc.ran = sc.ran[:0]
	for i := range sc.byShard {
		sc.byShard[i] = sc.byShard[i][:0]
		sc.withdraw[i] = sc.withdraw[i][:0]
	}
	if sc.uniqIdx != nil {
		clear(sc.uniqIdx)
	}
	c.scratch.Put(sc)
}

// linearBatchDedup is the batch size up to which duplicate collapsing uses
// a linear scan over the unique identities (a hash compare guards the
// genome compare) instead of a map. Generation-sized batches stay far
// below it, and the scan beats the map's per-key hashing there.
const linearBatchDedup = 64

// batchLookup is the per-unique-point state of one batch resolution,
// identified by its (hash, pt) pair.
type batchLookup struct {
	hash  uint64
	pt    param.Point
	shard int
	entry *cacheEntry
	// owned: this batch inserted the entry and must complete (or withdraw)
	// it. wait: another goroutine's evaluation is in flight; the batch
	// merges with it by waiting on entry.done. canceled: the wait was cut
	// short by ctx, so the entry's fields must not be read.
	owned    bool
	wait     bool
	canceled bool
	// requests counts how many batch items resolve to this identity.
	requests int
}

// batchResolve is the batch engine: it dedups, shards, and probes on the
// (hash, point) identity. Per-item semantics match the single-point path;
// see EvaluateBatchHashedCtx for the amortization contract.
func (c *Cache) batchResolve(ctx context.Context, sc *batchScratch, hashes []uint64, pts []param.Point, par int) ([]metrics.Metrics, []error, error) {
	n := len(pts)
	ms := make([]metrics.Metrics, n)
	errs := make([]error, n)
	if n == 0 {
		return ms, errs, ctx.Err()
	}
	c.total.Add(int64(n))

	// Span tracing: one cache.batch root per resolution, with dedup/probe/
	// wait phases emitted as pre-measured children and the miss fan-out as
	// a live child span. All timing is gated on tracing so the disabled
	// path never reads the clock.
	tracing := c.tracer.Enabled()
	var batchSpan trace.Active
	var phaseStart time.Time
	if tracing {
		batchSpan = c.tracer.Start("cache.batch")
		defer batchSpan.End()
		phaseStart = time.Now()
	}

	// Collapse duplicates: one batchLookup per distinct point, in first-
	// appearance order so the miss fan-out is deterministic. Generation-
	// sized batches dedup by linear scan (a hash compare guards the genome
	// compare); larger batches fall back to a pooled map. A map hit is
	// still genome-verified, so an in-batch 64-bit collision splits into
	// separate lookups instead of merging wrongly.
	if cap(sc.dup) < n {
		sc.dup = make([]int, n)
	}
	dup := sc.dup[:n] // request index -> uniq index
	uniq := sc.uniq[:0]
	appendUniq := func(i int) int {
		uniq = append(uniq, batchLookup{pt: pts[i], hash: hashes[i], shard: shardForHash(hashes[i])})
		return len(uniq) - 1
	}
	match := func(j, i int) bool {
		return uniq[j].hash == hashes[i] && uniq[j].pt.Equal(pts[i])
	}
	if n <= linearBatchDedup {
		for i := 0; i < n; i++ {
			j := -1
			for q := range uniq {
				if match(q, i) {
					j = q
					break
				}
			}
			if j < 0 {
				j = appendUniq(i)
			}
			uniq[j].requests++
			dup[i] = j
		}
	} else {
		if sc.uniqIdx == nil {
			sc.uniqIdx = make(map[uint64]int, n)
		}
		for i := 0; i < n; i++ {
			j, ok := sc.uniqIdx[hashes[i]]
			if ok && !match(j, i) {
				// 64-bit collision inside one batch: scan for a true match
				// beyond the map's first index (the map keeps the first).
				j = -1
				for q := range uniq {
					if match(q, i) {
						j = q
						break
					}
				}
				ok = j >= 0
			}
			if !ok {
				j = appendUniq(i)
				if _, exists := sc.uniqIdx[hashes[i]]; !exists {
					sc.uniqIdx[hashes[i]] = j
				}
			}
			uniq[j].requests++
			dup[i] = j
		}
	}
	sc.uniq = uniq // keep any growth for reuse
	if tracing {
		now := time.Now()
		batchSpan.Emit("cache.dedup", phaseStart, now.Sub(phaseStart))
		phaseStart = now
	}

	// Single sharded probe: group the unique points by shard and classify
	// each under one lock acquisition per touched shard - hit (entry
	// complete), merge (entry in flight elsewhere), or owned miss (entry
	// inserted). Probes verify the stored packed genome before declaring a
	// hit; collision probes are folded into the cache's accounting per
	// shard, outside the lock.
	byShard := &sc.byShard
	for j := range uniq {
		byShard[uniq[j].shard] = append(byShard[uniq[j].shard], j)
	}
	for shi, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &c.shards[shi]
		shardProbes := 0
		sh.mu.Lock()
		for _, j := range idxs {
			u := &uniq[j]
			e, probes := sh.table.lookup(u.hash, u.pt)
			shardProbes += probes
			if e != nil {
				u.entry = e
				select {
				case <-e.done:
				default:
					u.wait = true
				}
				continue
			}
			e = &cacheEntry{done: make(chan struct{}), hash: u.hash, genome: c.space.AppendPacked(nil, u.pt)}
			sh.table.insert(e)
			u.entry = e
			u.owned = true
		}
		sh.mu.Unlock()
		c.noteCollisions(shardProbes, shi)
	}
	if tracing {
		now := time.Now()
		batchSpan.Emit("cache.probe", phaseStart, now.Sub(phaseStart))
		phaseStart = now
	}

	// Cache records mirror the single-point path's per-lookup
	// classification: the first request of an owned point is the miss,
	// every further duplicate would have been answered from the cache (a
	// hit); merged points are singleflight-deduplicated waits. The dedup
	// counter is updated regardless of tracing, like the single path.
	for j := range uniq {
		u := &uniq[j]
		if u.wait {
			c.dedup.Add(int64(u.requests))
		}
		if !tracing {
			continue
		}
		switch {
		case u.owned:
			c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheMiss, Shard: u.shard})
			for k := 1; k < u.requests; k++ {
				c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheHit, Shard: u.shard})
			}
		case u.wait:
			for k := 0; k < u.requests; k++ {
				c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheDedup, Shard: u.shard})
			}
		default:
			for k := 0; k < u.requests; k++ {
				c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheHit, Shard: u.shard})
			}
		}
	}

	// Evaluate the residual misses - the points this batch owns. The batch
	// backend (when set) receives them in one call; otherwise they fan out
	// over the cache's single-point evaluator on up to par workers.
	owned := sc.owned[:0]
	for j := range uniq {
		if uniq[j].owned {
			owned = append(owned, j)
		}
	}
	sc.owned = owned
	if len(owned) > 0 {
		fanout := trace.Active{}
		if tracing {
			fanout = batchSpan.Child("cache.fanout")
		}
		opts := sc.opts[:0]
		for _, j := range owned {
			opts = append(opts, uniq[j].pt)
		}
		sc.opts = opts
		var oms []metrics.Metrics
		var oerrs []error
		if c.batch != nil {
			oms, oerrs = c.batch(ctx, opts)
			if len(oms) != len(owned) || len(oerrs) != len(owned) {
				// A misbehaving backend must not leave owned entries open
				// forever; treat the whole sub-batch as a transient failure.
				err := MarkTransient(fmt.Errorf("dataset: batch backend returned %d/%d results for %d points",
					len(oms), len(oerrs), len(owned)))
				oms = make([]metrics.Metrics, len(owned))
				oerrs = make([]error, len(owned))
				for k := range oerrs {
					oerrs[k] = err
				}
			}
		} else {
			if cap(sc.oms) < len(owned) {
				sc.oms = make([]metrics.Metrics, len(owned))
				sc.oerrs = make([]error, len(owned))
				sc.ran = make([]bool, len(owned))
			}
			oms = sc.oms[:len(owned)]
			oerrs = sc.oerrs[:len(owned)]
			ran := sc.ran[:len(owned)]
			clear(ran)
			_ = pool.EachCtx(ctx, par, len(owned), func(k int) {
				oms[k], oerrs[k] = c.resolve(ctx, opts[k])
				ran[k] = true
			}, c.tracer)
			for k := range ran {
				if !ran[k] {
					// Never started: the run was canceled before this point's
					// turn. Withdraw it transiently, like a canceled attempt.
					oms[k], oerrs[k] = nil, MarkTransient(ctx.Err())
				}
			}
		}

		// Publish: transient outcomes are withdrawn (grouped per shard, one
		// lock each) before their done channels close, so no later lookup
		// inherits a poisoned entry; everything else is memoized. Counters
		// update once for the whole batch.
		var distinct, transient int64
		withdraw := &sc.withdraw
		for k, j := range owned {
			u := &uniq[j]
			u.entry.m, u.entry.err = oms[k], oerrs[k]
			if oerrs[k] != nil && IsTransient(oerrs[k]) {
				transient++
				withdraw[u.shard] = append(withdraw[u.shard], j)
				c.tracer.RecordCache(trace.CacheRecord{Event: trace.CacheTransient, Shard: u.shard})
			} else {
				distinct++
			}
		}
		for shi, idxs := range withdraw {
			if len(idxs) == 0 {
				continue
			}
			sh := &c.shards[shi]
			sh.mu.Lock()
			for _, j := range idxs {
				sh.table.remove(uniq[j].entry)
			}
			sh.mu.Unlock()
		}
		for _, j := range owned {
			close(uniq[j].entry.done)
		}
		c.distinct.Add(distinct)
		if transient > 0 {
			c.transient.Add(transient)
		}
		fanout.End()
	}

	// Merge with evaluations in flight elsewhere (another batch, another
	// session on a shared cache, or a single-point lookup): wait for their
	// results instead of re-dispatching. A canceled wait abandons the
	// in-flight evaluation; its owner still completes the entry.
	waited := false
	if tracing {
		phaseStart = time.Now()
	}
	for j := range uniq {
		u := &uniq[j]
		if !u.wait {
			continue
		}
		waited = true
		select {
		case <-u.entry.done:
		case <-ctx.Done():
			u.canceled = true
		}
	}
	if tracing && waited {
		batchSpan.Emit("cache.wait", phaseStart, time.Since(phaseStart))
	}

	for i := range pts {
		u := &uniq[dup[i]]
		if u.canceled {
			errs[i] = MarkTransient(ctx.Err())
			continue
		}
		ms[i], errs[i] = u.entry.m, u.entry.err
	}
	return ms, errs, ctx.Err()
}
