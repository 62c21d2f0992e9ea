package cluster

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/faultnet"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
)

// TestPartitionDegradesToLocal is the faultnet satellite: a two-way
// partition mid-search makes remote cache lookups degrade to local
// evaluation (counted in cluster.fallbacks, the nautilus_cluster_fallbacks
// family), the search still completes with correct results, healing
// re-enables sharing, and the whole exercise leaks no goroutines.
func TestPartitionDegradesToLocal(t *testing.T) {
	baseline := runtime.NumGoroutine()

	faulty := faultnet.New(faultnet.Config{Under: faultnet.NewMemory()})
	nodes := newTestCluster(t, faulty, []string{"alpha", "beta"}, func(o *Options) {
		o.RPCTimeout = 50 * time.Millisecond
		o.MigrationTimeout = 250 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]
	ring := a.node.Ring()
	space, rawEval := testSpace()

	// pointsOwnedBy picks distinct points whose hashes land on owner, so
	// each Evaluate below is guaranteed to exercise the remote tier.
	pointsOwnedBy := func(owner string, n int) []param.Point {
		var pts []param.Point
		for w := 0; w < 16 && len(pts) < n; w++ {
			for x := 0; x < 16 && len(pts) < n; x++ {
				pt := param.Point{w, x, 5, 5}
				if ring.Owner(space.Hash64(pt)) == owner {
					pts = append(pts, pt.Clone())
				}
			}
		}
		return pts
	}

	// Healthy: alpha resolves beta-owned points through beta.
	healthy := pointsOwnedBy("beta", 4)
	for _, pt := range healthy {
		if _, err := a.cache.Evaluate(pt); err != nil {
			t.Fatal(err)
		}
	}
	if hits := a.counter(MetricRemoteHits); hits != int64(len(healthy)) {
		t.Fatalf("healthy remote hits = %d, want %d", hits, len(healthy))
	}
	if a.evals.Load() != 0 || b.evals.Load() != int64(len(healthy)) {
		t.Fatalf("healthy evaluation placement wrong: alpha=%d beta=%d", a.evals.Load(), b.evals.Load())
	}

	// Partition two-way mid-search: beta-owned lookups must fall back to
	// alpha's local evaluator - counted, completed, and correct.
	faulty.Partition(faultnet.PartitionTwoWay)
	parted := pointsOwnedBy("beta", 8)[4:]
	for _, pt := range parted {
		m, err := a.cache.Evaluate(pt)
		if err != nil {
			t.Fatalf("partitioned evaluation failed: %v", err)
		}
		want, _ := rawEval(pt)
		if m["cost"] != want["cost"] {
			t.Fatalf("partitioned evaluation wrong: %v != %v", m, want)
		}
	}
	if fb := a.counter(MetricFallbacks); fb != int64(len(parted)) {
		t.Fatalf("fallbacks = %d, want %d", fb, len(parted))
	}
	if a.evals.Load() != int64(len(parted)) {
		t.Fatalf("partitioned points not evaluated locally: alpha evals = %d", a.evals.Load())
	}

	// A full island session submitted while partitioned still completes:
	// cross-node islands degrade to local re-runs and exchanges time out,
	// but the merged result is feasible and correct.
	res, err := a.node.RunSession(context.Background(), testRequest("parted", 21, true))
	if err != nil {
		t.Fatalf("partitioned session failed: %v", err)
	}
	if !res.Feasible {
		t.Fatal("partitioned session found nothing feasible")
	}
	var sum float64 = 1
	for i, tv := range []int{3, 12, 7, 9} {
		d := float64(res.Best[i] - tv)
		sum += d * d
	}
	if res.BestValue != sum {
		t.Fatalf("partitioned session returned inconsistent best: %v -> %v, want %v", res.Best, res.BestValue, sum)
	}

	// Heal: sharing resumes - new beta-owned points ride the RPC again.
	faulty.Heal()
	preHits := a.counter(MetricRemoteHits)
	preBetaEvals := b.evals.Load()
	healed := pointsOwnedBy("beta", 12)[8:]
	for _, pt := range healed {
		if _, err := a.cache.Evaluate(pt); err != nil {
			t.Fatal(err)
		}
	}
	if hits := a.counter(MetricRemoteHits) - preHits; hits != int64(len(healed)) {
		t.Fatalf("post-heal remote hits = %d, want %d", hits, len(healed))
	}
	if deval := b.evals.Load() - preBetaEvals; deval != int64(len(healed)) {
		t.Fatalf("post-heal evaluations landed wrong: beta evaluated %d, want %d", deval, len(healed))
	}

	// No goroutine leaks once the nodes shut down.
	a.node.Close()
	b.node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d > baseline %d\n%s", got, baseline, buf[:runtime.Stack(buf, true)])
	}

	// The cluster never produced a wrong answer anywhere above; spot-check
	// the cache contents agree with the raw evaluator end to end.
	for _, pt := range append(append(healthy, parted...), healed...) {
		m, err := a.cache.Evaluate(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rawEval(pt)
		if m["cost"] != want["cost"] {
			t.Fatalf("memoized value for %v drifted: %v != %v", pt, m, want)
		}
	}
}

// TestCrossingBatchesComplete: two nodes each resolve, at the same
// moment, one batch holding a point each node owns. A batch completes the
// points its own node owns before asking the peer for the rest, so a
// served lookup only ever waits on an evaluation already under way - never
// on a batch that is itself waiting on an RPC to the asker. Both batches
// finish with no fallback and one evaluation per point, long before the
// RPC timeout a crossed wait would run into.
func TestCrossingBatchesComplete(t *testing.T) {
	space, rawEval := testSpace()
	network := faultnet.NewMemory()
	addrs := map[string]string{"alpha": "alpha:9100", "beta": "beta:9101"}
	var evals atomic.Int64
	caches := make(map[string]*dataset.Cache)
	regs := make(map[string]*telemetry.Registry)
	var ring *Ring
	for id := range addrs {
		cache := dataset.NewCache(space, func(pt param.Point) (metrics.Metrics, error) {
			evals.Add(1)
			time.Sleep(50 * time.Millisecond)
			return rawEval(pt)
		})
		peers := make(map[string]string)
		for pid, addr := range addrs {
			if pid != id {
				peers[pid] = addr
			}
		}
		reg := telemetry.NewRegistry()
		node, err := NewNode(Options{
			ID: id, Addr: addrs[id], Peers: peers, Network: network, Registry: reg,
			RPCTimeout: 2 * time.Second,
			Caches: func(ip string) (*dataset.Cache, *param.Space, bool) {
				return cache, space, ip == testIP
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		cache.SetRemote(node.RemoteFor(testIP))
		caches[id], regs[id], ring = cache, reg, node.Ring()
	}

	// One point owned by each node.
	var batch []param.Point
	for _, owner := range []string{"alpha", "beta"} {
		for x := 0; ; x++ {
			pt := param.Point{x % 16, x / 16, 5, 5}
			if ring.Owner(space.Hash64(pt)) == owner {
				batch = append(batch, pt)
				break
			}
		}
	}

	start := make(chan struct{})
	began := time.Now()
	var wg sync.WaitGroup
	for id, cache := range caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ms := make([]metrics.Metrics, len(batch))
			errs := make([]error, len(batch))
			if err := cache.EvaluateBatchCtx(context.Background(), nil, batch, ms, errs, 1); err != nil {
				t.Errorf("%s: batch failed: %v", id, err)
			}
			for k, pt := range batch {
				want, _ := rawEval(pt)
				if errs[k] != nil || ms[k]["cost"] != want["cost"] {
					t.Errorf("%s: point %v answered (%v, %v), want %v", id, pt, ms[k], errs[k], want)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if took := time.Since(began); took > time.Second {
		t.Errorf("crossing batches took %v; a served lookup waited on its asker", took)
	}
	for id, reg := range regs {
		if fb := reg.Counter(MetricFallbacks).Value(); fb != 0 {
			t.Errorf("%s fell back to local evaluation %d times", id, fb)
		}
	}
	if got := evals.Load(); got != int64(len(batch)) {
		t.Errorf("cluster evaluated %d times for %d distinct points", got, len(batch))
	}
}
