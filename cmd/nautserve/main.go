// Command nautserve runs the Nautilus search engine as a long-lived
// service: a JSON HTTP API accepting search jobs, running them as
// concurrent supervised sessions over a bounded, fairly shared evaluation
// budget, with per-generation progress over SSE, live Prometheus metrics
// on /metrics, and per-session introspection and pprof under /debug/.
//
// Sessions on the same IP share one process-wide evaluation cache, so
// concurrent searches of one space pay for each distinct design point
// once - while each session's own accounting (and result) stays
// byte-identical to a solo nautilus CLI run of the same spec.
//
// A job's optional "mode" field widens the search shape: "pareto" (with a
// "queries" list of two or more objectives) returns the non-dominated
// front with its hypervolume and streams per-generation front growth over
// SSE; "portfolio" races the guided GA, the baseline GA, and simulated
// annealing over one shared dedup cache and reports each strategy's
// outcome. Pareto sessions checkpoint and resume like scalar ones;
// portfolio sessions re-run from scratch after a restart.
//
// SIGTERM/SIGINT drains gracefully: every in-flight session stops at its
// next generation boundary and persists a resumable checkpoint; a restart
// on the same -state-dir resumes all of them to the exact results they
// would have reached uninterrupted.
//
// The -fault-* flags arm the internal/faultnet harness on the accept
// side: every accepted connection gets a deterministic fault schedule
// (latency, bandwidth, resets, partitions, slow-loris throttling) drawn
// from -fault-seed. Production runs leave them off and serve plain TCP.
//
// The -node-id/-cluster-addr/-peers flags join the server to a nautserve
// cluster: the evaluation cache shards over a consistent-hash ring (each
// design point is evaluated once per cluster), submitted jobs run as
// island-model searches spread across the membership, and /v1 job routes
// proxy to the owning node so the cluster answers behind any one member.
//
// Exit codes: 0 after a clean drain, 1 on a fatal error, 2 on a usage
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nautilus/internal/faultnet"
	"nautilus/internal/server"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

const (
	exitOK    = 0
	exitFatal = 1
	exitUsage = 2
)

// clusterOptions assembles server.ClusterOptions from the cluster flags.
// Clustering is armed by -node-id; a -peers entry "id=rpcaddr/apiaddr"
// registers both the peer's cluster RPC address and (optionally) its HTTP
// API address for /v1 job proxying.
func clusterOptions(nodeID, clusterAddr, peers string, islands, migrationEvery, migrationCount int) (*server.ClusterOptions, error) {
	if nodeID == "" {
		if clusterAddr != "" || peers != "" {
			return nil, fmt.Errorf("-cluster-addr/-peers require -node-id")
		}
		return nil, nil
	}
	if clusterAddr == "" {
		return nil, fmt.Errorf("-node-id requires -cluster-addr")
	}
	co := &server.ClusterOptions{
		NodeID:            nodeID,
		Addr:              clusterAddr,
		Peers:             make(map[string]string),
		APIPeers:          make(map[string]string),
		Islands:           islands,
		MigrationInterval: migrationEvery,
		MigrationCount:    migrationCount,
	}
	if peers == "" {
		return co, nil
	}
	for _, part := range strings.Split(peers, ",") {
		id, addrs, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addrs == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want id=rpcaddr[/apiaddr])", part)
		}
		rpcAddr, apiAddr, hasAPI := strings.Cut(addrs, "/")
		if _, dup := co.Peers[id]; dup {
			return nil, fmt.Errorf("duplicate -peers entry for node %q", id)
		}
		co.Peers[id] = rpcAddr
		if hasAPI && apiAddr != "" {
			co.APIPeers[id] = apiAddr
		}
	}
	return co, nil
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nautserve:", err)
	}
	os.Exit(code)
}

func run(args []string, out *os.File) (int, error) {
	fs := flag.NewFlagSet("nautserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "address to listen on (host:port, :0 picks a free port)")
	stateDir := fs.String("state-dir", "", "directory persisting session state across restarts (required)")
	workers := fs.Int("workers", 0, "global evaluation budget shared across sessions (0 = GOMAXPROCS)")
	maxSessions := fs.Int("max-sessions", 0, "maximum concurrently running sessions (0 = unlimited)")
	checkpointEvery := fs.Int("checkpoint-every", 5, "checkpoint cadence in generations (drain always checkpoints)")
	evalDelay := fs.Duration("eval-delay", 0, "artificial per-evaluation latency, simulating synthesis cost (testing)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain may take before forcing exit")

	nodeID := fs.String("node-id", "", "stable cluster identity of this node (enables clustering)")
	clusterAddr := fs.String("cluster-addr", "", "cluster RPC listen address (required with -node-id)")
	peers := fs.String("peers", "", "comma-separated peers as id=rpcaddr[/apiaddr]; apiaddr enables /v1 job proxying to that peer")
	islands := fs.Int("islands", 0, "islands per clustered session (0 = one per cluster member)")
	migrationEvery := fs.Int("migration-every", 5, "island migrant-exchange cadence in generations (negative disables)")
	migrationCount := fs.Int("migration-count", 1, "migrants shipped per island exchange")

	var sc faultnet.Scenario
	fs.Int64Var(&sc.Seed, "fault-seed", 1, "seed of the fault scenario's private stream")
	fs.DurationVar(&sc.Latency, "fault-latency", 0, "base per-operation network latency to inject")
	fs.DurationVar(&sc.Jitter, "fault-jitter", 0, "extra deterministic per-operation jitter in [0, jitter)")
	fs.IntVar(&sc.BandwidthBPS, "fault-bandwidth", 0, "per-direction bandwidth cap in bytes/sec (0 = unlimited)")
	fs.Float64Var(&sc.ResetRate, "fault-reset-rate", 0, "probability a connection gets a scheduled reset")
	fs.IntVar(&sc.ResetMaxBytes, "fault-reset-bytes", 4096, "reset offsets are drawn in [1, this]")
	fs.Float64Var(&sc.PartitionRate, "fault-partition-rate", 0, "probability a connection gets a scheduled partition window")
	fs.IntVar(&sc.PartitionMaxBytes, "fault-partition-bytes", 4096, "partition trigger offsets are drawn in [1, this]")
	fs.DurationVar(&sc.PartitionHeal, "fault-partition-heal", 250*time.Millisecond, "how long a scheduled partition window lasts")
	fs.Float64Var(&sc.SlowLorisRate, "fault-slowloris-rate", 0, "probability a connection is throttled to slow-loris rates")
	fs.IntVar(&sc.SlowLorisBPS, "fault-slowloris-bps", 256, "slow-loris per-direction throughput in bytes/sec")
	faultLog := fs.String("fault-log", "", "file receiving the canonical fault-event log on exit")

	if err := fs.Parse(args); err != nil {
		return exitUsage, nil // flag package already printed the error
	}
	if *stateDir == "" {
		fs.Usage()
		return exitUsage, fmt.Errorf("-state-dir is required")
	}
	if fs.NArg() > 0 {
		return exitUsage, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if err := sc.Validate(); err != nil {
		return exitUsage, err
	}
	clusterOpts, err := clusterOptions(*nodeID, *clusterAddr, *peers, *islands, *migrationEvery, *migrationCount)
	if err != nil {
		return exitUsage, err
	}

	reg := telemetry.NewRegistry()
	opts := server.Options{
		StateDir:        *stateDir,
		Workers:         *workers,
		MaxSessions:     *maxSessions,
		CheckpointEvery: *checkpointEvery,
		EvalDelay:       *evalDelay,
		Registry:        reg,
		Cluster:         clusterOpts,
	}
	// With any fault knob set, accepted connections route through the
	// deterministic fault harness; otherwise the server binds plain TCP.
	var fnet *faultnet.Faulty
	if sc.Active() {
		fnet = faultnet.New(faultnet.Config{Scenario: sc, Registry: reg})
		opts.Network = fnet
	}

	srv, err := server.New(opts)
	if err != nil {
		return exitFatal, err
	}
	if fnet != nil {
		// Fault events land beside the engine's phases in the /metrics
		// latency histograms; the span-ID stream is the scenario's own.
		fnet.SetTracer(trace.New(trace.Config{
			Session: "faultnet",
			Seed:    sc.Seed,
			Sinks:   []trace.Sink{srv.SpanSink()},
		}))
	}

	base, err := srv.Listen(*addr)
	if err != nil {
		return exitFatal, err
	}
	// Transient accept failures (fd pressure, aborted handshakes) back off
	// and retry instead of killing the serve loop.
	ln := server.NewRetryListener(base, reg)
	hs := &http.Server{
		Handler: srv.Handler(),
		// Header reads and idle keep-alives are bounded; no global write
		// timeout because /v1/jobs/{id}/events streams SSE for a session's
		// whole lifetime.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if fnet != nil {
		fmt.Fprintf(out, "nautserve fault harness armed (seed %d)\n", sc.Seed)
	}
	if clusterOpts != nil {
		fmt.Fprintf(out, "nautserve cluster node %s on %s (%d peers)\n",
			clusterOpts.NodeID, clusterOpts.Addr, len(clusterOpts.Peers))
	}
	// The bound address line is machine-read by tests driving -addr :0 and
	// is printed last so everything above it is visible once it appears;
	// keep its format stable.
	fmt.Fprintf(out, "nautserve listening on %s\n", ln.Addr())
	fmt.Fprintf(out, "nautserve state dir %s\n", *stateDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(out, "nautserve received %s, draining\n", sig)
	case err := <-serveErr:
		return exitFatal, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	_ = hs.Shutdown(ctx)
	if fnet != nil && *faultLog != "" {
		if werr := os.WriteFile(*faultLog, []byte(fnet.Events().String()), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "nautserve: write fault log: %v\n", werr)
		}
	}
	if drainErr != nil {
		return exitFatal, drainErr
	}
	fmt.Fprintln(out, "nautserve drained cleanly")
	return exitOK, nil
}
