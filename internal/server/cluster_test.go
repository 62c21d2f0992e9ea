package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nautilus/internal/cluster"
	"nautilus/internal/faultnet"
)

// clusterTestEnv is a 3-node nautserve cluster over one in-memory network:
// servers, their HTTP APIs served on the same network, and a client that
// dials through it.
type clusterTestEnv struct {
	servers []*Server
	apis    []string
	client  *http.Client
}

// newClusterEnv builds n clustered servers ("n0".."n{n-1}") over net, each
// serving its HTTP API at "n<i>:8080" on the same network so /v1 proxying
// has somewhere to go, and stalling each real evaluation by evalDelay.
func newClusterEnv(t *testing.T, net faultnet.Network, n int, evalDelay time.Duration) *clusterTestEnv {
	t.Helper()
	env := &clusterTestEnv{
		client: &http.Client{Transport: &http.Transport{DialContext: net.DialContext}},
	}
	rpc := make(map[string]string, n)
	api := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		rpc[id] = fmt.Sprintf("%s:7000", id)
		api[id] = fmt.Sprintf("%s:8080", id)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		peers := make(map[string]string, n-1)
		apiPeers := make(map[string]string, n-1)
		for pid, addr := range rpc {
			if pid != id {
				peers[pid] = addr
				apiPeers[pid] = api[pid]
			}
		}
		srv := newTestServer(t, Options{
			Network:   net,
			EvalDelay: evalDelay,
			Cluster: &ClusterOptions{
				NodeID:            id,
				Addr:              rpc[id],
				Peers:             peers,
				APIPeers:          apiPeers,
				MigrationInterval: 3,
				MigrationCount:    1,
				MigrationTimeout:  5 * time.Second,
			},
		})
		ln, err := srv.Listen(api[id])
		if err != nil {
			t.Fatal(err)
		}
		go http.Serve(ln, srv.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Drain(ctx)
			ln.Close()
		})
		env.servers = append(env.servers, srv)
		env.apis = append(env.apis, api[id])
	}
	return env
}

// counterSum totals one cluster counter across the membership.
func (env *clusterTestEnv) counterSum(name string) int64 {
	var sum int64
	for _, srv := range env.servers {
		sum += srv.Registry().Counter(name).Value()
	}
	return sum
}

// runClusterJob submits spec to node 0 and returns the finished result.
func runClusterJob(t *testing.T, env *clusterTestEnv, spec JobSpec) (JobStatus, *JobResult) {
	t.Helper()
	st, err := env.servers[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, env.servers[0], st.ID)
	if final.State != StateDone {
		t.Fatalf("cluster job ended %s: %s", final.State, final.Error)
	}
	res, err := env.servers[0].Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final, res
}

// TestClusterServerDeterminism is the server half of the tentpole
// acceptance: a job submitted to a 3-node cluster completes as an
// island-model search with observable cross-node cache dedup, and a fresh
// cluster given the same spec reproduces the result byte for byte.
func TestClusterServerDeterminism(t *testing.T) {
	spec := testSpec()
	spec.Seed = 11

	env := newClusterEnv(t, faultnet.NewMemory(), 3, 0)
	_, res := runClusterJob(t, env, spec)
	if res.ID != "job-n0-000001" {
		t.Fatalf("clustered job ID = %q, want job-n0-000001", res.ID)
	}
	if hits := env.counterSum(cluster.MetricRemoteHits); hits == 0 {
		t.Error("no cross-node cache hits in a clustered session")
	}
	if served := env.counterSum(cluster.MetricServed); served == 0 {
		t.Error("no node served a peer's cache lookup")
	}

	// The island fan-out replays merged progress through the session's
	// progress sink, so status carries real generation data.
	st, err := env.servers[0].Status(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation < 0 || st.DistinctEvals == 0 || st.BestValue == nil {
		t.Errorf("clustered status missing progress: %+v", st)
	}

	fresh := newClusterEnv(t, faultnet.NewMemory(), 3, 0)
	_, res2 := runClusterJob(t, fresh, spec)
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(res2)
	if string(a) != string(b) {
		t.Errorf("same-seed cluster results differ:\n%s\n%s", a, b)
	}
}

// TestClusterServerProxy pins the one-API story: any member answers for
// any job, forwarding to the minting node; unknown jobs still 404, and
// each node's observability carries the cluster block.
func TestClusterServerProxy(t *testing.T) {
	env := newClusterEnv(t, faultnet.NewMemory(), 2, 0)
	spec := testSpec()
	spec.Seed = 4
	_, res := runClusterJob(t, env, spec)

	get := func(node int, path string) (int, []byte) {
		t.Helper()
		resp, err := env.client.Get("http://" + env.apis[node] + path)
		if err != nil {
			t.Fatalf("GET %s via node %d: %v", path, node, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Node 1 never saw the job; it proxies to node 0 and answers as one.
	code, body := get(1, "/v1/jobs/"+res.ID)
	if code != http.StatusOK || !strings.Contains(string(body), res.ID) {
		t.Fatalf("proxied status = %d %s", code, body)
	}
	code, body = get(1, "/v1/jobs/"+res.ID+"/result")
	direct, _ := json.Marshal(res)
	var viaProxy JobResult
	if err := json.Unmarshal(body, &viaProxy); err != nil || code != http.StatusOK {
		t.Fatalf("proxied result = %d %s (%v)", code, body, err)
	}
	proxied, _ := json.Marshal(&viaProxy)
	if string(proxied) != string(direct) {
		t.Errorf("proxied result differs from owner's:\n%s\n%s", proxied, direct)
	}

	// A job the owner never minted 404s through the proxy; a job whose
	// embedded node is not a known API peer 404s locally.
	if code, _ = get(1, "/v1/jobs/job-n0-999999"); code != http.StatusNotFound {
		t.Errorf("proxied unknown job = %d, want 404", code)
	}
	if code, _ = get(1, "/v1/jobs/job-nx-000001"); code != http.StatusNotFound {
		t.Errorf("unknown-node job = %d, want 404", code)
	}

	// /v1/sessions carries the cluster block with each node's own identity.
	// The owner lists the session with its replayed progress but no
	// generation latencies: the replay was not timed on this node, so it
	// reports none rather than zeros.
	for i := range env.servers {
		code, body = get(i, "/v1/sessions")
		var sess struct {
			Sessions []SessionPerf `json:"sessions"`
			Cluster  *ClusterInfo  `json:"cluster"`
		}
		if err := json.Unmarshal(body, &sess); err != nil || code != http.StatusOK {
			t.Fatalf("sessions on node %d: %d %s", i, code, body)
		}
		if sess.Cluster == nil || sess.Cluster.Node != fmt.Sprintf("n%d", i) || len(sess.Cluster.Members) != 2 {
			t.Errorf("node %d cluster block = %+v", i, sess.Cluster)
		}
		if i != 0 {
			continue
		}
		if len(sess.Sessions) != 1 {
			t.Fatalf("owner lists %d sessions, want 1", len(sess.Sessions))
		}
		if p := sess.Sessions[0]; p.Generation != res.Generations || p.Generations != 0 ||
			p.GenLatencyP50Micros != 0 || p.GenLatencyP99Micros != 0 {
			t.Errorf("clustered session perf = %+v, want generation %d with no latency samples", p, res.Generations)
		}
	}

	// /metrics exposes the cluster families on a clustered node.
	rr := httptest.NewRecorder()
	env.servers[0].Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if text := rr.Body.String(); !strings.Contains(text, "nautilus_cluster_remote_hits") ||
		!strings.Contains(text, "nautilus_cluster_peers") {
		t.Error("clustered /metrics is missing nautilus_cluster_* families")
	}
}

// TestClusterParetoFrontMerge runs a pareto session over a 2-node cluster:
// islands run the multi-objective search (migrating front members with the
// usual exchange), and the coordinator merges their fronts into one
// cluster-wide non-dominated set that reaches the job result. A fresh
// cluster reproduces it byte for byte.
func TestClusterParetoFrontMerge(t *testing.T) {
	spec := paretoSpec()
	spec.Seed = 7

	env := newClusterEnv(t, faultnet.NewMemory(), 2, 0)
	_, res := runClusterJob(t, env, spec)
	if len(res.Front) == 0 {
		t.Fatal("clustered pareto result has no front")
	}
	if res.Hypervolume <= 0 || len(res.Nadir) != 2 {
		t.Errorf("merged hypervolume/nadir missing: hv=%v nadir=%v", res.Hypervolume, res.Nadir)
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i == j {
				continue
			}
			noWorse := a.Values[0] <= b.Values[0] && a.Values[1] >= b.Values[1]
			strict := a.Values[0] < b.Values[0] || a.Values[1] > b.Values[1]
			if noWorse && strict {
				t.Errorf("merged front[%d] %v dominates front[%d] %v", i, a.Values, j, b.Values)
			}
		}
	}
	// Status reflects the exact merged front once the session finishes.
	st, err := env.servers[0].Status(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.FrontSize != len(res.Front) || st.Hypervolume != res.Hypervolume {
		t.Errorf("status front %d/hv %v, result %d/%v", st.FrontSize, st.Hypervolume, len(res.Front), res.Hypervolume)
	}

	fresh := newClusterEnv(t, faultnet.NewMemory(), 2, 0)
	_, res2 := runClusterJob(t, fresh, spec)
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(res2)
	if string(a) != string(b) {
		t.Errorf("same-seed clustered pareto results differ:\n%s\n%s", a, b)
	}
}
