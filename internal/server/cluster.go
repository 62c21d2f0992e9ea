package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"nautilus/internal/catalog"
	"nautilus/internal/cluster"
	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry/trace"
)

// MetricClusterPeers is the gauge carrying the ring's member count
// (exposed as nautilus_cluster_peers alongside the cluster.Node counters).
const MetricClusterPeers = "cluster.peers"

// forwardHeader marks a proxied /v1 request with the forwarding node's ID,
// so a job that is unknown cluster-wide 404s instead of bouncing between
// peers forever.
const forwardHeader = "X-Nautilus-Forwarded"

// CodePeerUnreachable is the error envelope code for a proxy attempt that
// could not reach the job's owning node (502).
const CodePeerUnreachable = "peer_unreachable"

// ClusterOptions turns one server into a member of a nautserve cluster:
// its shared per-IP caches gain a remote tier sharded over a consistent-
// hash ring (each design point is evaluated once per cluster), submitted
// jobs run as island-model searches fanned out across the membership, and
// /v1 job routes proxy to the owning node so any member answers for any
// job.
type ClusterOptions struct {
	// NodeID is this node's stable ring identity. Required.
	NodeID string
	// Addr is the cluster RPC listen address. Required.
	Addr string
	// Peers maps peer node IDs to their cluster RPC dial addresses; ring
	// membership is Peers' keys plus NodeID.
	Peers map[string]string
	// APIPeers maps peer node IDs to their HTTP API host:port, enabling
	// /v1 job proxying. Peers absent here answer RPC but not proxied HTTP.
	APIPeers map[string]string
	// Islands is the island count per clustered session (default: one per
	// member).
	Islands int
	// MigrationInterval is the exchange cadence in generations (default 5;
	// negative disables migration and islands search independently).
	MigrationInterval int
	// MigrationCount is the emigrants per exchange (default 1).
	MigrationCount int
	// Vnodes is the ring's per-node virtual-node count (default
	// cluster.DefaultVnodes).
	Vnodes int
	// RPCTimeout / MigrationTimeout pass through to cluster.Options.
	RPCTimeout       time.Duration
	MigrationTimeout time.Duration
}

// migrationSpec renders the configured exchange schedule in wire form, or
// nil when migration is disabled.
func (co *ClusterOptions) migrationSpec() *cluster.MigrationSpec {
	if co.MigrationInterval < 0 {
		return nil
	}
	spec := &cluster.MigrationSpec{Interval: co.MigrationInterval, Count: co.MigrationCount}
	if spec.Interval == 0 {
		spec.Interval = 5
	}
	if spec.Count <= 0 {
		spec.Count = 1
	}
	return spec
}

// initCluster builds and starts this server's cluster node. Called from
// New before restore, so resumed sessions already see the cluster; the
// remote tier is attached to shared caches under s.mu, covering both the
// caches that exist already and every one sharedCacheFor creates later.
func (s *Server) initCluster() error {
	co := s.opts.Cluster
	if co.NodeID == "" {
		return fmt.Errorf("server: cluster node id required")
	}
	if co.Addr == "" {
		return fmt.Errorf("server: cluster listen address required")
	}
	node, err := cluster.NewNode(cluster.Options{
		ID:               co.NodeID,
		Addr:             co.Addr,
		Peers:            co.Peers,
		Network:          s.opts.Network,
		Vnodes:           co.Vnodes,
		Registry:         s.reg,
		Caches:           s.clusterCaches,
		RunIsland:        s.runClusterIsland,
		RPCTimeout:       co.RPCTimeout,
		MigrationTimeout: co.MigrationTimeout,
	})
	if err != nil {
		return err
	}
	s.reg.Gauge(MetricClusterPeers).Set(float64(len(node.Ring().Nodes())))
	s.clusterHTTP = &http.Client{
		Transport: &http.Transport{DialContext: s.opts.Network.DialContext},
	}
	s.mu.Lock()
	s.cluster = node
	for ip, c := range s.shared {
		c.SetRemote(node.RemoteFor(ip))
	}
	s.mu.Unlock()
	return nil
}

// clusterNode returns the cluster node, nil when running solo.
func (s *Server) clusterNode() *cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// clusterCaches resolves the shared evaluation cache peers' opEval
// requests are served from. Eval and Space are per-IP (query-independent),
// so any query's catalog entry reaches the same cache sharedCacheFor hands
// local sessions.
func (s *Server) clusterCaches(ip string) (*dataset.Cache, *param.Space, bool) {
	queries, err := catalog.Queries(ip)
	if err != nil || len(queries) == 0 {
		return nil, nil, false
	}
	entry, err := catalog.Lookup(ip, queries[0])
	if err != nil {
		return nil, nil, false
	}
	return s.sharedCacheFor(entry), entry.Space, true
}

// runClusterIsland runs one island of a cluster session on this node: the
// spec's payload is the session's JobSpec, the island searches it with the
// spec's derived seed through the shared per-IP cache (remote tier
// included, so the cluster still pays for each distinct point once), and
// migrants ride the node's exchange. Pure in the spec - a peer re-running
// a degraded island computes the identical search.
func (s *Server) runClusterIsland(ctx context.Context, spec cluster.IslandSpec) (cluster.IslandResult, error) {
	var js JobSpec
	if err := json.Unmarshal(spec.Payload, &js); err != nil {
		return cluster.IslandResult{}, fmt.Errorf("island payload: %w", err)
	}
	js = js.withDefaults(s.opts.Workers)
	entry, guid, objs, err := js.resolve()
	if err != nil {
		return cluster.IslandResult{}, err
	}
	shared := s.sharedCacheFor(entry)
	// Scheduler slots are accounted per island, so a clustered session's
	// islands share the worker budget fairly like any other tenants.
	sid := fmt.Sprintf("%s#%d", spec.Session, spec.Island)
	eval := func(ectx context.Context, pt param.Point) (metrics.Metrics, error) {
		return shared.EvaluateCtx(context.WithValue(ectx, sessionKey{}, sid), pt)
	}
	cfg := ga.Config{
		PopulationSize: js.Population,
		Generations:    js.Generations,
		Seed:           spec.Seed,
		Parallelism:    js.Parallelism,
	}
	res, err := core.Search(ctx, core.SearchRequest{
		Space:       entry.Space,
		Mode:        js.Mode,
		Objective:   entry.Objective,
		Objectives:  objs,
		EvaluateCtx: eval,
		Config:      cfg,
	}, core.WithGuidance(guid), core.WithMigration(spec.Exchange(s.clusterNode())))
	if err != nil {
		return cluster.IslandResult{}, err
	}
	if res.Interrupted {
		if cerr := ctx.Err(); cerr != nil {
			return cluster.IslandResult{}, cerr
		}
		return cluster.IslandResult{}, fmt.Errorf("island %d interrupted", spec.Island)
	}
	return cluster.IslandResult{
		Island:        spec.Island,
		Best:          res.BestPoint,
		BestValue:     res.BestValue,
		Feasible:      res.BestPoint != nil,
		Trajectory:    res.Trajectory,
		DistinctEvals: res.DistinctEvals,
		Converged:     res.Converged,
		Front:         res.Front,
		Hypervolume:   res.Hypervolume,
		Nadir:         res.Nadir,
	}, nil
}

// searchCluster runs one submitted session as an island-model search over
// the cluster and folds the merged outcome back into the ga.Result shape
// the session state machine consumes. The merged trajectory replays
// through the session's progress sink afterwards, so status and SSE
// subscribers see the same per-generation progress a solo run streams
// live. The replay carries no wall times, so /v1/sessions reports no
// generation latencies for a clustered session rather than zeros.
// Session-private cache accounting (TotalQueries/CacheHits) stays zero
// here: islands run in parallel across nodes and their private counters
// do not compose into one meaningful session number - the cluster-wide
// dedup story lives in nautilus_cluster_remote_hits instead.
func (s *Server) searchCluster(ctx context.Context, sess *session) (ga.Result, error) {
	co := s.opts.Cluster
	payload, err := json.Marshal(sess.spec)
	if err != nil {
		return ga.Result{}, err
	}
	cres, err := s.clusterNode().RunSession(ctx, cluster.Request{
		Session:    sess.id,
		Seed:       sess.spec.Seed,
		Islands:    co.Islands,
		Migration:  co.migrationSpec(),
		Payload:    payload,
		Better:     sess.entry.Objective.Better,
		Worst:      sess.entry.Objective.Worst(),
		Objectives: sess.objs,
	})
	if err != nil {
		if ctx.Err() != nil {
			return ga.Result{Interrupted: true}, nil
		}
		return ga.Result{}, err
	}
	res := ga.Result{
		BestPoint:     cres.Best,
		BestValue:     cres.BestValue,
		Trajectory:    cres.Trajectory,
		DistinctEvals: cres.DistinctEvals,
		Front:         cres.Front,
		Hypervolume:   cres.Hypervolume,
		Nadir:         cres.Nadir,
	}
	worst := sess.entry.Objective.Worst()
	for _, gp := range cres.Trajectory {
		feasible := 0
		if gp.BestValue != worst {
			feasible = 1
		}
		sess.progress.publish(trace.GenerationRecord{
			Generation:    gp.Generation,
			BestValue:     gp.BestValue,
			Feasible:      feasible,
			UniqueGenomes: gp.UniqueGenomes,
			DistinctEvals: gp.DistinctEvals,
			FrontSize:     gp.FrontSize,
			Hypervolume:   gp.Hypervolume,
		})
	}
	return res, nil
}

// ClusterInfo is the cluster block /v1/sessions and /v1/stats expose on a
// clustered node.
type ClusterInfo struct {
	Node    string   `json:"node"`
	Members []string `json:"members"`
	// Islands is the configured island count per session (0 = one per
	// member).
	Islands int `json:"islands"`
	// The counters mirror the nautilus_cluster_* metric families.
	RemoteHits        int64 `json:"remote_hits"`
	Fallbacks         int64 `json:"fallbacks"`
	Served            int64 `json:"served"`
	MigrantsSent      int64 `json:"migrants_sent"`
	MigrantsRecv      int64 `json:"migrants_recv"`
	MigrationTimeouts int64 `json:"migration_timeouts"`
}

// clusterInfo snapshots the cluster block, nil on a solo server.
func (s *Server) clusterInfo() *ClusterInfo {
	node := s.clusterNode()
	if node == nil {
		return nil
	}
	counter := func(name string) int64 { return s.reg.Counter(name).Value() }
	return &ClusterInfo{
		Node:              node.ID(),
		Members:           node.Ring().Nodes(),
		Islands:           s.opts.Cluster.Islands,
		RemoteHits:        counter(cluster.MetricRemoteHits),
		Fallbacks:         counter(cluster.MetricFallbacks),
		Served:            counter(cluster.MetricServed),
		MigrantsSent:      counter(cluster.MetricMigrantsSent),
		MigrantsRecv:      counter(cluster.MetricMigrantsRecv),
		MigrationTimeouts: counter(cluster.MetricMigrationTimeouts),
	}
}

// jobOwner reports which peer owns id when it is a clustered job ID minted
// by another node this server can proxy to. Clustered IDs embed the
// submitting node: "job-<nodeID>-<seq>".
func (s *Server) jobOwner(id string) (string, bool) {
	co := s.opts.Cluster
	if co == nil {
		return "", false
	}
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return "", false
	}
	cut := strings.LastIndexByte(rest, '-')
	if cut <= 0 {
		return "", false
	}
	owner := rest[:cut]
	if owner == co.NodeID {
		return "", false
	}
	_, ok = co.APIPeers[owner]
	return owner, ok
}

// proxyJob wraps a job-addressed handler: requests for jobs minted by a
// peer are forwarded to that peer's API, so the cluster answers as one.
// Forwarded requests carry forwardHeader and are never re-forwarded.
func (s *Server) proxyJob(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if owner, ok := s.jobOwner(r.PathValue("id")); ok && r.Header.Get(forwardHeader) == "" {
			s.proxy(w, r, owner)
			return
		}
		fn(w, r)
	}
}

// proxy forwards one request to owner's API verbatim and streams the
// response back, flushing as chunks arrive so proxied SSE stays live.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, owner string) {
	out := r.Clone(r.Context())
	out.URL.Scheme = "http"
	out.URL.Host = s.opts.Cluster.APIPeers[owner]
	out.Host = out.URL.Host
	out.RequestURI = ""
	out.Header = r.Header.Clone()
	out.Header.Set(forwardHeader, s.opts.Cluster.NodeID)
	resp, err := s.clusterHTTP.Do(out)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, ErrorEnvelope{Error: ErrorBody{
			Code:    CodePeerUnreachable,
			Message: fmt.Sprintf("job owner %s unreachable: %v", owner, err),
		}})
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// closeCluster shuts the cluster node down (idempotent; no-op when solo).
func (s *Server) closeCluster() {
	if node := s.clusterNode(); node != nil {
		node.Close()
	}
}
