package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/faultnet"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
)

// testIP is the catalog IP the test cluster shares caches for.
const testIP = "quad"

// testSpace is a 4-parameter space with a unique optimum - the same
// shape the ga package's tests search.
func testSpace() (*param.Space, func(param.Point) (metrics.Metrics, error)) {
	s := param.MustSpace(
		param.Int("w", 0, 15, 1),
		param.Int("x", 0, 15, 1),
		param.Int("y", 0, 15, 1),
		param.Int("z", 0, 15, 1),
	)
	target := []int{3, 12, 7, 9}
	eval := func(pt param.Point) (metrics.Metrics, error) {
		cost := 1.0
		for i, tv := range target {
			d := float64(pt[i] - tv)
			cost += d * d
		}
		return metrics.Metrics{"cost": cost}, nil
	}
	return s, eval
}

// islandPayload is the embedder job description the test RunIsland
// understands.
type islandPayload struct {
	Generations int `json:"generations"`
	Population  int `json:"population"`
}

// testNode is one cluster member plus the observability the tests poke.
type testNode struct {
	node  *Node
	cache *dataset.Cache
	reg   *telemetry.Registry
	evals atomic.Int64 // raw local evaluator invocations
}

func (tn *testNode) counter(name string) int64 { return tn.reg.Counter(name).Value() }

// newTestCluster builds ids-many nodes over net, each with a shared
// evaluation cache for testIP (remote tier attached) and a RunIsland
// that searches the quad space with the spec's seed and migration.
func newTestCluster(t *testing.T, net faultnet.Network, ids []string, tune func(*Options)) []*testNode {
	t.Helper()
	addrs := make(map[string]string, len(ids))
	for i, id := range ids {
		addrs[id] = fmt.Sprintf("%s:%d", id, 9000+i)
	}
	nodes := make([]*testNode, len(ids))
	for i, id := range ids {
		tn := &testNode{reg: telemetry.NewRegistry()}
		space, rawEval := testSpace()
		tn.cache = dataset.NewCache(space, func(pt param.Point) (metrics.Metrics, error) {
			tn.evals.Add(1)
			return rawEval(pt)
		})
		peers := make(map[string]string, len(ids)-1)
		for pid, paddr := range addrs {
			if pid != id {
				peers[pid] = paddr
			}
		}
		opts := Options{
			ID:       id,
			Addr:     addrs[id],
			Peers:    peers,
			Network:  net,
			Registry: tn.reg,
			Caches: func(ip string) (*dataset.Cache, *param.Space, bool) {
				if ip != testIP {
					return nil, nil, false
				}
				return tn.cache, space, true
			},
		}
		opts.RunIsland = func(ctx context.Context, spec IslandSpec) (IslandResult, error) {
			var p islandPayload
			if err := json.Unmarshal(spec.Payload, &p); err != nil {
				return IslandResult{}, err
			}
			// Like a server's islands, the island's private cache stacks on
			// the shared one, so each generation's misses reach it - and its
			// peer-owned ones the ring - as one batch.
			cfg := ga.Config{
				Seed:           spec.Seed,
				Generations:    p.Generations,
				PopulationSize: p.Population,
				Shared:         tn.cache,
				Migration:      spec.Exchange(tn.node),
			}
			eng, err := ga.NewContext(space, metrics.MinimizeMetric("cost"), tn.cache.EvaluateCtx, cfg, nil)
			if err != nil {
				return IslandResult{}, err
			}
			res, err := eng.RunContext(ctx)
			if err != nil {
				return IslandResult{}, err
			}
			return IslandResult{
				Best:          res.BestPoint,
				BestValue:     res.BestValue,
				Feasible:      res.BestPoint != nil,
				Trajectory:    res.Trajectory,
				DistinctEvals: res.DistinctEvals,
				Converged:     res.Converged,
			}, nil
		}
		if tune != nil {
			tune(&opts)
		}
		node, err := NewNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.cache.SetRemote(node.RemoteFor(testIP))
		nodes[i] = tn
		t.Cleanup(func() { node.Close() })
	}
	return nodes
}

func testRequest(session string, seed int64, migrate bool) Request {
	payload, _ := json.Marshal(islandPayload{Generations: 12, Population: 8})
	req := Request{
		Session: session,
		Seed:    seed,
		Payload: payload,
		Better:  func(a, b float64) bool { return a < b }, // minimize
		Worst:   metrics.MinimizeMetric("cost").Worst(),
	}
	if migrate {
		req.Migration = &MigrationSpec{Interval: 3, Count: 2}
	}
	return req
}

// TestClusterDeterminism is the tentpole acceptance test: two same-seed
// 3-node island runs over faultnet.Memory return byte-identical results
// (trajectory included), and cluster-wide cache dedup is observable -
// cross-node hits happen, and the second run's evaluators are never
// invoked because every point is already characterized somewhere.
func TestClusterDeterminism(t *testing.T) {
	nodes := newTestCluster(t, faultnet.NewMemory(), []string{"alpha", "beta", "gamma"}, nil)
	run := func(session string) []byte {
		res, err := nodes[0].node.RunSession(context.Background(), testRequest(session, 42, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run("run-1")
	var firstEvals, firstRemote, firstServed int64
	for _, tn := range nodes {
		firstEvals += tn.evals.Load()
		firstRemote += tn.counter(MetricRemoteHits)
		firstServed += tn.counter(MetricServed)
	}
	if firstRemote == 0 || firstServed == 0 {
		t.Fatalf("no cross-node cache traffic: remote_hits=%d served=%d", firstRemote, firstServed)
	}
	if sent := nodes[0].counter(MetricMigrantsSent) + nodes[1].counter(MetricMigrantsSent) + nodes[2].counter(MetricMigrantsSent); sent == 0 {
		t.Fatal("no migrants exchanged in an island run")
	}

	second := run("run-2")
	if string(first) != string(second) {
		t.Errorf("same-seed cluster runs differ:\n%s\n%s", first, second)
	}
	var secondEvals int64
	for _, tn := range nodes {
		secondEvals += tn.evals.Load()
	}
	if secondEvals != firstEvals {
		t.Errorf("second run re-evaluated %d points the cluster had already characterized",
			secondEvals-firstEvals)
	}
	// Fresh cluster, same seed: byte-identical again (no hidden state).
	fresh := newTestCluster(t, faultnet.NewMemory(), []string{"alpha", "beta", "gamma"}, nil)
	res, err := fresh[0].node.RunSession(context.Background(), testRequest("run-1", 42, true))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(res)
	if string(b) != string(first) {
		t.Errorf("fresh cluster differs from warm cluster on the same seed")
	}
}

// TestClusterMatchesSoloWithoutMigration pins the other determinism
// satellite: with migration disabled, each island is an independent GA,
// so island k of a 3-node run must match a plain solo run seeded with
// IslandSeed(seed, k) - and island 0 keeps the session seed itself.
func TestClusterMatchesSoloWithoutMigration(t *testing.T) {
	nodes := newTestCluster(t, faultnet.NewMemory(), []string{"alpha", "beta", "gamma"}, nil)
	const seed = 7
	res, err := nodes[0].node.RunSession(context.Background(), testRequest("solo-match", seed, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Islands) != 3 {
		t.Fatalf("islands = %d, want 3", len(res.Islands))
	}
	space, rawEval := testSpace()
	for k, island := range res.Islands {
		eng, err := ga.NewContext(space, metrics.MinimizeMetric("cost"), dataset.AdaptContext(rawEval),
			ga.Config{Seed: IslandSeed(seed, k), Generations: 12, PopulationSize: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if island.BestValue != solo.BestValue || !param.Point(island.Best).Equal(solo.BestPoint) {
			t.Errorf("island %d best (%v, %v) != solo (%v, %v)",
				k, island.Best, island.BestValue, solo.BestPoint, solo.BestValue)
		}
		if len(island.Trajectory) != len(solo.Trajectory) {
			t.Fatalf("island %d trajectory length %d != solo %d", k, len(island.Trajectory), len(solo.Trajectory))
		}
		for g := range solo.Trajectory {
			if island.Trajectory[g].BestValue != solo.Trajectory[g].BestValue ||
				island.Trajectory[g].UniqueGenomes != solo.Trajectory[g].UniqueGenomes {
				t.Fatalf("island %d diverges from solo at generation %d", k, g)
			}
		}
	}
	if IslandSeed(seed, 0) != seed {
		t.Error("island 0 must keep the session seed")
	}
}

// TestIslandSeedDistinct guards the derivation: distinct islands draw
// distinct streams.
func TestIslandSeedDistinct(t *testing.T) {
	seen := map[int64]int{}
	for k := 0; k < 64; k++ {
		s := IslandSeed(99, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("islands %d and %d share seed %d", prev, k, s)
		}
		seen[s] = k
	}
}

// TestRPCCodecRoundTrip pins the binary eval codec: a batch request and
// its per-point reply survive a round trip, and truncated input is
// refused.
func TestRPCCodecRoundTrip(t *testing.T) {
	req := evalBatch{
		ip:     "soc/noc",
		hashes: []uint64{0xdeadbeefcafe, 7},
		pts:    []param.Point{{3, 12, 7, 9}, {0, -1, math.MaxInt32, 5}},
	}
	got, err := decodeEvalBatch(req.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("request round trip: %+v, want %+v", got, req)
	}
	items := []evalItem{
		{status: statusOK, m: metrics.Metrics{"cost": 1.5, "fmax_mhz": 250, "luts": 1200}},
		{status: statusErr, err: "infeasible"},
		{status: statusMiss},
		{status: statusOK, m: metrics.Metrics{}},
	}
	reply := encodeEvalReply(items)
	back, err := decodeEvalReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, items) {
		t.Fatalf("reply round trip: %+v, want %+v", back, items)
	}
	if _, _, err := decodeMetrics([]byte{0x00}); err == nil {
		t.Error("truncated metrics accepted")
	}
	if _, err := decodeEvalBatch([]byte{0x00, 0x02, 'h'}); err == nil {
		t.Error("truncated request accepted")
	}
	if _, err := decodeEvalReply(reply[:len(reply)-1]); err == nil {
		t.Error("truncated reply accepted")
	}
}
