// Lookup resolution.
//
// The Nautilus deployment model makes evaluation the cost that dwarfs every
// other: one design point is a minutes-to-hours synthesis job, and a GA
// generation asks for a whole population of them at once. A Cache answers
// every lookup through one resolver - a point lookup is a batch of one -
// that probes each request under its shard lock, hands the batch's misses
// down to the next tier in one call each (the parent cache or a fan-out
// over the evaluator, and the remote tier for points another node owns),
// and waits on points other callers already have in flight. A batch is resolved entirely on 64-bit
// genome hashes - no string key is built anywhere on the path, and every
// hit is verified against the stored packed genome.
package dataset

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/telemetry/trace"
)

// SetParent stacks the cache on parent: the cache's misses go to parent
// in one EvaluateBatchCtx call per batch instead of fanning out over the
// cache's own evaluator, which is then never called. This is how caches
// stack: a session-private cache, which keeps the session's own paper
// accounting, resolves its misses in the process-wide shared cache, so
// concurrent searches of the same space merge their in-flight generations
// and a distinct point is paid for once per process. Two preconditions
// hold for every stack and are not checked:
//
//   - parent is built over the same *param.Space, so this cache's genome
//     hashes are valid for it;
//   - a stacked cache has no remote tier of its own (SetRemote) and
//     reaches one only through its parent.
//
// Call it before the cache is shared across goroutines; a nil parent
// restores the fan-out.
func (c *Cache) SetParent(parent *Cache) {
	c.parent = parent
}

// EvaluateBatchCtx resolves a batch of lookups in one pass, writing pts[i]'s
// outcome to ms[i] and errs[i]. hashes[i] must be pts[i]'s genome hash
// (param.Space.Hash64); a nil hashes slice asks the cache to compute them.
// Every lookup is counted, and each request is one of:
//
//   - a hit: the point is memoized, or an earlier request of this batch
//     owns it;
//   - a miss: the batch owns the point and resolves it - in one call to
//     the parent cache (SetParent) or a fan-out over the evaluator
//     on up to par pool workers, or, for a point the remote tier
//     (SetRemote) forwards, in one call to that tier, evaluating locally
//     whatever it cannot answer;
//   - a singleflight-deduplicated wait: another caller is already
//     resolving the point, and the batch waits for its outcome instead of
//     evaluating it again.
//
// A distinct point therefore costs one evaluation no matter how many
// batches race for it. Transient outcomes (IsTransient) reach every
// request that shares them but are never memoized. The returned error is
// nil unless ctx was canceled, in which case the batch is incomplete and
// must be discarded (per-item transient errors mark the affected items).
func (c *Cache) EvaluateBatchCtx(ctx context.Context, hashes []uint64, pts []param.Point, ms []metrics.Metrics, errs []error, par int) error {
	n := len(pts)
	if (hashes != nil && len(hashes) != n) || len(ms) != n || len(errs) != n {
		return fmt.Errorf("dataset: batch of %d points has %d hashes and %d/%d result slots", n, len(hashes), len(ms), len(errs))
	}
	if n == 0 {
		return ctx.Err()
	}
	c.total.Add(int64(n))

	// Span tracing: one cache.batch root per batch, with the probe and wait
	// phases emitted as pre-measured children and the miss resolution as
	// a live child span. All timing is gated on tracing so the disabled
	// path never reads the clock.
	tracing := c.tracer.Enabled()
	var root trace.Active
	var start time.Time
	if tracing {
		root = c.tracer.Start("cache.batch")
		start = time.Now()
	}
	sc := c.probe(ctx, hashes, pts, ms, errs)
	if tracing {
		root.Emit("cache.probe", start, time.Since(start))
	}
	if sc != nil {
		c.resolveMisses(ctx, sc, par, &root)
		c.collect(ctx, sc, ms, errs, &root)
		putScratch(sc)
	}
	if tracing {
		root.End()
	}
	return ctx.Err()
}

// probe looks each request up under its shard lock: it is a hit, a wait
// on another caller's in-flight entry, or an owned insert. Completed hits
// are answered on the spot; the rest are left in the returned scratch,
// which is nil when every request was a completed hit.
func (c *Cache) probe(ctx context.Context, hashes []uint64, pts []param.Point, ms []metrics.Metrics, errs []error) *batchScratch {
	var sc *batchScratch
	for i, pt := range pts {
		var h uint64
		if hashes != nil {
			h = hashes[i]
		} else {
			h = c.hashFn(pt)
		}
		// Whether the remote tier would forward a miss is decided before
		// the shard lock is taken, so no tier code runs under it.
		fwd := c.remote != nil && c.remote.Forwards(ctx, h)
		sh := &c.shards[shardForHash(h)]
		sh.mu.Lock()
		e, probes := sh.table.lookup(h, pt)
		if e == nil {
			if sc == nil {
				sc = getScratch()
			}
			g := &sc.local
			if fwd {
				g = &sc.fwd
			}
			e = g.add(h, pt, c.space.AppendPacked(nil, pt))
			sh.table.insert(e)
		}
		sh.mu.Unlock()
		if probes > 0 {
			c.collisions.Add(int64(probes))
		}
		if e.completed() {
			ms[i], errs[i] = e.m, e.err
		} else {
			if sc == nil {
				sc = getScratch()
			}
			// An entry in flight under another owner's completion is a
			// singleflight wait; one this batch owns is a miss (just
			// inserted) or a hit on an earlier request of the batch.
			if e.comp != sc.local.comp && e.comp != sc.fwd.comp {
				c.dedup.Add(1)
			}
			sc.pending = append(sc.pending, pendingLookup{i: i, e: e})
		}
	}
	return sc
}

// resolveMisses resolves the batch's owned misses under a cache.fanout
// span. The points this cache evaluates itself are completed first: a
// peer's lookup served from this cache waits only on such points, so it
// can never wait on this batch's own remote lookups (which may in turn be
// waiting on that peer). Remote answers come next, and whatever the
// remote tier could not answer is evaluated locally after all.
func (c *Cache) resolveMisses(ctx context.Context, sc *batchScratch, par int, root *trace.Active) {
	if len(sc.local.entries) == 0 && len(sc.fwd.entries) == 0 {
		return
	}
	fanout := root.Child("cache.fanout")
	c.evalLocal(ctx, sc, &sc.local, par)
	c.publish(&sc.local)
	if g := &sc.fwd; len(g.entries) > 0 {
		c.remote.LookupBatch(ctx, g.hashes, g.pts, g.ms, g.errs, g.resolved)
		c.evalLocal(ctx, sc, g, par)
		c.publish(g)
	}
	fanout.End()
}

// collect answers the requests the probe left pending: owned points are
// complete by now, and points in flight elsewhere (another batch, another
// session on a shared cache) are waited on under a cache.wait span. A
// canceled wait abandons the in-flight evaluation; its owner still
// completes the entry.
func (c *Cache) collect(ctx context.Context, sc *batchScratch, ms []metrics.Metrics, errs []error, root *trace.Active) {
	var start time.Time
	waited := false
	for _, p := range sc.pending {
		e := p.e
		if !e.completed() {
			if !waited && c.tracer.Enabled() {
				start = time.Now()
			}
			waited = true
			select {
			case <-e.comp.done:
			case <-ctx.Done():
				ms[p.i], errs[p.i] = nil, MarkTransient(ctx.Err())
				continue
			}
		}
		ms[p.i], errs[p.i] = e.m, e.err
	}
	if waited && c.tracer.Enabled() {
		root.Emit("cache.wait", start, time.Since(start))
	}
}

// missGroup is a set of points one batch owns and completes together. Its
// completion record is shared by the group's entries and doubles as the
// batch's owner token: it is set on each entry at insert and never
// replaced, so a later duplicate of an owned point in the same batch
// recognizes the entry as its own - a hit - instead of waiting on itself.
type missGroup struct {
	comp    *completion
	entries []*cacheEntry
	hashes  []uint64
	pts     []param.Point
	ms      []metrics.Metrics
	errs    []error
	// resolved marks the outcomes already in ms/errs: answered by the
	// remote tier, or evaluated by the fan-out. todo indexes the rest
	// while they are evaluated.
	resolved []bool
	todo     []int
}

// add inserts one owned miss and returns its fresh entry.
func (g *missGroup) add(h uint64, pt param.Point, genome []int32) *cacheEntry {
	if g.comp == nil {
		g.comp = &completion{done: make(chan struct{})}
	}
	e := &cacheEntry{comp: g.comp, hash: h, genome: genome}
	g.entries = append(g.entries, e)
	g.hashes = append(g.hashes, h)
	g.pts = append(g.pts, pt)
	g.ms = append(g.ms, nil)
	g.errs = append(g.errs, nil)
	g.resolved = append(g.resolved, false)
	return e
}

// reset drops every reference the group holds (points, entries and
// outcomes must not be retained by the scratch pool) and keeps the
// capacity. The completed record belongs to the entries now.
func (g *missGroup) reset() {
	g.comp = nil
	clear(g.entries)
	clear(g.pts)
	clear(g.ms)
	clear(g.errs)
	g.entries, g.hashes, g.pts = g.entries[:0], g.hashes[:0], g.pts[:0]
	g.ms, g.errs, g.resolved, g.todo = g.ms[:0], g.errs[:0], g.resolved[:0], g.todo[:0]
}

// pendingLookup is a request the probe could not answer on the spot.
type pendingLookup struct {
	i int
	e *cacheEntry
}

// batchScratch is one batch's reusable working state. Scratch comes from
// a package-level pool, so even a fresh cache's first batch reuses warm
// slices, and its fan-out closure is built once per scratch rather than
// once per batch.
type batchScratch struct {
	// local holds the misses this cache evaluates itself, fwd those its
	// remote tier forwards to a peer.
	local, fwd missGroup
	pending    []pendingLookup

	// fan evaluates group g's j-th todo point under ctx through c's
	// evaluator; the three fields are set around each pool run.
	fan func(j int)
	c   *Cache
	ctx context.Context
	g   *missGroup
}

var scratchPool = sync.Pool{New: func() any {
	sc := &batchScratch{}
	sc.fan = func(j int) {
		g := sc.g
		k := g.todo[j]
		g.ms[k], g.errs[k] = sc.c.eval(sc.ctx, g.pts[k])
		g.resolved[k] = true
	}
	return sc
}}

func getScratch() *batchScratch { return scratchPool.Get().(*batchScratch) }

func putScratch(sc *batchScratch) {
	sc.local.reset()
	sc.fwd.reset()
	clear(sc.pending)
	sc.pending = sc.pending[:0]
	sc.c, sc.ctx, sc.g = nil, nil, nil
	scratchPool.Put(sc)
}

// evalLocal evaluates g's unresolved points: in one call to the parent
// cache when one is set, otherwise fanned out over the evaluator on up to
// par pool workers. A point the pool never started (ctx was canceled
// first) gets a transient error, like a canceled attempt. Only a forwarded
// group is ever partly resolved, and a stacked cache forwards nothing, so
// the parent gets the whole group and writes every outcome - a canceled
// wait included.
func (c *Cache) evalLocal(ctx context.Context, sc *batchScratch, g *missGroup, par int) {
	if c.parent != nil {
		_ = c.parent.EvaluateBatchCtx(ctx, g.hashes, g.pts, g.ms, g.errs, par)
		return
	}
	todo := g.todo[:0]
	for k, done := range g.resolved {
		if !done {
			todo = append(todo, k)
		}
	}
	g.todo = todo
	if len(todo) == 0 {
		return
	}
	sc.c, sc.ctx, sc.g = c, ctx, g
	_ = pool.EachCtx(ctx, par, len(todo), sc.fan, c.tracer)
	for _, k := range todo {
		if !g.resolved[k] {
			g.ms[k], g.errs[k] = nil, MarkTransient(ctx.Err())
		}
	}
}

// publish completes a group. Transient outcomes are withdrawn from their
// shard tables before done closes, so no later lookup inherits a poisoned
// entry; every other outcome is memoized and counts as a distinct
// evaluation. The group is stamped with the next completion sequence
// number before done closes, which is what lets ExportMark tell entries
// completed before a mark from those completed after it.
func (c *Cache) publish(g *missGroup) {
	if len(g.entries) == 0 {
		return
	}
	var distinct, transient int64
	for k, e := range g.entries {
		e.m, e.err = g.ms[k], g.errs[k]
		if e.err == nil || !IsTransient(e.err) {
			distinct++
			continue
		}
		transient++
		sh := &c.shards[shardForHash(e.hash)]
		sh.mu.Lock()
		sh.table.remove(e)
		sh.mu.Unlock()
	}
	c.distinct.Add(distinct)
	if transient > 0 {
		c.transient.Add(transient)
	}
	g.comp.seq = c.seq.Add(1)
	close(g.comp.done)
}
