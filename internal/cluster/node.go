package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/faultnet"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
)

// Registry metric names the cluster maintains (exposed on /metrics as
// nautilus_cluster_*). They are registered only when a node is given a
// Registry, so a solo server's metric families are unchanged.
const (
	// MetricFallbacks counts design points whose remote cache lookup
	// degraded to local evaluation (peer unreachable, partitioned, or
	// declining) - the partition-degradation signal the faultnet tests
	// pin. A failed opEval frame counts each of its points once.
	MetricFallbacks = "cluster.fallbacks"
	// MetricRemoteHits counts design points resolved by a peer instead of
	// a local evaluation - cluster-wide cache dedup at work.
	MetricRemoteHits = "cluster.remote_hits"
	// MetricServed counts design points this node looked up for peers'
	// opEval frames.
	MetricServed = "cluster.served"
	// MetricMigrantsSent / MetricMigrantsRecv count island-model migrants
	// shipped and adopted.
	MetricMigrantsSent = "cluster.migrants_sent"
	MetricMigrantsRecv = "cluster.migrants_recv"
	// MetricMigrationTimeouts counts exchanges that gave up waiting (the
	// island continued unaided).
	MetricMigrationTimeouts = "cluster.migration_timeouts"
)

// ErrClosed is returned by cluster calls after Close.
var ErrClosed = errors.New("cluster: node closed")

// Options configures a Node.
type Options struct {
	// ID is this node's stable identity on the ring. Required.
	ID string
	// Addr is the RPC listen address (":0"-style ephemeral ports work on
	// every faultnet.Network). Required.
	Addr string
	// Peers maps peer node IDs to their RPC dial addresses. The ring
	// membership is Peers' keys plus ID; a self entry is ignored.
	Peers map[string]string
	// Network is the transport every listen and dial goes through
	// (default faultnet.System - real TCP).
	Network faultnet.Network
	// Registry, when set, receives the cluster.* counters.
	Registry *telemetry.Registry
	// Caches resolves the shared evaluation cache (and its space) for a
	// catalog IP - the cache opEval requests are served from. Required
	// for a node to answer peer lookups; a node without it declines them.
	Caches func(ip string) (*dataset.Cache, *param.Space, bool)
	// RunIsland runs one island of a cluster session on this node. A
	// node without it rejects opIsland requests.
	RunIsland func(ctx context.Context, spec IslandSpec) (IslandResult, error)
	// RPCTimeout bounds one peer cache/migrate round trip (default 2s).
	// Island RPCs are bounded by their context instead - islands run for
	// whole searches.
	RPCTimeout time.Duration
	// MigrationTimeout bounds how long an island waits for immigrants at
	// an exchange boundary before continuing unaided (default 5s).
	MigrationTimeout time.Duration
}

// Node is one cluster member: it serves the length-prefixed RPC (cache
// lookups, migrant deposits, island runs) on its listener, routes its own
// cache misses to ring owners through peer clients, and hosts the migrant
// mailboxes for islands running on it. All transport goes through the
// configured faultnet.Network.
type Node struct {
	opts Options
	ring *Ring
	ln   net.Listener

	// baseCtx cancels server-side work on Close.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	peers    map[string]*peerClient
	conns    map[net.Conn]struct{}
	mail     map[mailKey]chan []ga.Migrant
	sessions map[string]int // active local islands per session
	wg       sync.WaitGroup

	fallbacks  *telemetry.Counter
	remoteHits *telemetry.Counter
	served     *telemetry.Counter
	sent       *telemetry.Counter
	recv       *telemetry.Counter
	timeouts   *telemetry.Counter
}

type mailKey struct {
	session string
	gen     int
	island  int
}

// peerClient is one persistent RPC connection, serialized by its mutex
// and redialed lazily after any failure.
type peerClient struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewNode builds the ring, binds the RPC listener, and starts accepting.
func NewNode(opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: node id required")
	}
	if opts.Addr == "" {
		return nil, fmt.Errorf("cluster: listen address required")
	}
	if opts.Network == nil {
		opts.Network = faultnet.System{}
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 2 * time.Second
	}
	if opts.MigrationTimeout <= 0 {
		opts.MigrationTimeout = 5 * time.Second
	}
	members := make([]string, 0, len(opts.Peers)+1)
	members = append(members, opts.ID)
	for id := range opts.Peers {
		if id != opts.ID {
			members = append(members, id)
		}
	}
	ring, err := NewRing(members, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	ln, err := opts.Network.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", opts.Addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		opts:     opts,
		ring:     ring,
		ln:       ln,
		baseCtx:  ctx,
		cancel:   cancel,
		peers:    make(map[string]*peerClient),
		conns:    make(map[net.Conn]struct{}),
		mail:     make(map[mailKey]chan []ga.Migrant),
		sessions: make(map[string]int),
	}
	if reg := opts.Registry; reg != nil {
		n.fallbacks = reg.Counter(MetricFallbacks)
		n.remoteHits = reg.Counter(MetricRemoteHits)
		n.served = reg.Counter(MetricServed)
		n.sent = reg.Counter(MetricMigrantsSent)
		n.recv = reg.Counter(MetricMigrantsRecv)
		n.timeouts = reg.Counter(MetricMigrationTimeouts)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ID returns this node's ring identity.
func (n *Node) ID() string { return n.opts.ID }

// Addr returns the bound RPC address (resolving ":0" binds).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Ring returns the node's (immutable) membership ring.
func (n *Node) Ring() *Ring { return n.ring }

// Close stops the listener, severs every connection, and waits for the
// serving goroutines to drain. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	peers := make([]*peerClient, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()

	n.cancel()
	err := n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	n.wg.Wait()
	return err
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func add(c *telemetry.Counter, d int64) {
	if c != nil {
		c.Add(d)
	}
}

// acceptLoop serves inbound RPC connections until Close.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(c)
	}
}

// serveConn answers frames on one connection until it errors or closes.
func (n *Node) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
	}()
	for {
		op, payload, err := readFrame(c)
		if err != nil {
			return
		}
		var status byte
		var body []byte
		switch op {
		case opEval:
			status, body = n.handleEval(payload)
		case opMigrate:
			status, body = n.handleMigrate(payload)
		case opIsland:
			status, body = n.handleIsland(payload)
		default:
			status, body = statusErr, []byte(fmt.Sprintf("unknown opcode 0x%02x", op))
		}
		if err := writeFrame(c, status, body); err != nil {
			return
		}
	}
}

// noForwardKey marks contexts of RPC-served evaluations: the remote tier
// declines under it, so an owner answers locally even when an
// inconsistent ring view (or a hash owned by a third node's vnode) would
// otherwise bounce the lookup onward.
type noForwardKey struct{}

// handleEval answers a peer's batch of cache lookups: resolve the shared
// cache for the IP, verify each genome against the space and its hash, and
// look the verified points up in one batch (hitting the cache's memo or
// paying the local evaluator - this node owns the hashes, so the cost
// lands here by design). Points that fail verification, transient
// failures and unknown IPs are declined with statusMiss so the asker
// falls back to local evaluation instead of memoizing a transport
// artifact.
func (n *Node) handleEval(payload []byte) (byte, []byte) {
	req, err := decodeEvalBatch(payload)
	if err != nil {
		return statusErr, []byte(err.Error())
	}
	if n.opts.Caches == nil {
		return statusMiss, nil
	}
	cache, space, ok := n.opts.Caches(req.ip)
	if !ok {
		return statusMiss, nil
	}
	// Only verified points reach the cache: they move to the front of the
	// request, and valid maps each back to its reply item.
	items := make([]evalItem, len(req.pts))
	var valid []int
	for k, pt := range req.pts {
		items[k].status = statusMiss
		if validPoint(space, req.hashes[k], pt) {
			req.hashes[len(valid)], req.pts[len(valid)] = req.hashes[k], pt
			valid = append(valid, k)
		}
	}
	add(n.served, int64(len(valid)))
	ms := make([]metrics.Metrics, len(valid))
	errs := make([]error, len(valid))
	ctx := context.WithValue(n.baseCtx, noForwardKey{}, true)
	_ = cache.EvaluateBatchCtx(ctx, req.hashes[:len(valid)], req.pts[:len(valid)], ms, errs, len(valid))
	for j, k := range valid {
		switch {
		case errs[j] == nil:
			items[k] = evalItem{status: statusOK, m: ms[j]}
		case !dataset.IsTransient(errs[j]):
			items[k] = evalItem{status: statusErr, err: errs[j].Error()}
		}
	}
	return statusOK, encodeEvalReply(items)
}

// validPoint reports whether pt is a genome of space - one in-range value
// per parameter - whose genome hash is hash. Only such points may reach a
// cache lookup.
func validPoint(space *param.Space, hash uint64, pt param.Point) bool {
	return space.Validate(pt) == nil && space.Hash64(pt) == hash
}

// RemoteFor returns the dataset.Remote tier that routes ip's cache misses
// to their ring owners. Attach it with cache.SetRemote; a point it cannot
// get answered is evaluated by the cache locally.
func (n *Node) RemoteFor(ip string) dataset.Remote {
	return remoteTier{n: n, ip: ip}
}

type remoteTier struct {
	n  *Node
	ip string
}

// Forwards implements dataset.Remote: a hash is forwarded when another
// node owns it on the ring, except under an RPC-served lookup, which this
// node always answers itself.
func (t remoteTier) Forwards(ctx context.Context, hash uint64) bool {
	if ctx.Value(noForwardKey{}) != nil {
		return false
	}
	owner := t.n.ring.Owner(hash)
	return owner != "" && owner != t.n.opts.ID
}

// LookupBatch implements dataset.Remote: the forwarded points go to their
// owners in one opEval frame per owning peer, the frames in flight
// concurrently. A point the owner answers definitively counts in
// cluster.remote_hits; one it declines, or whose frame fails, is left to
// local evaluation and counts once in cluster.fallbacks.
func (t remoteTier) LookupBatch(ctx context.Context, hashes []uint64, pts []param.Point, ms []metrics.Metrics, errs []error, ok []bool) {
	byPeer := make(map[string][]int)
	for k, h := range hashes {
		owner := t.n.ring.Owner(h)
		byPeer[owner] = append(byPeer[owner], k)
	}
	var wg sync.WaitGroup
	for peer, idx := range byPeer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := evalBatch{ip: t.ip, hashes: make([]uint64, len(idx)), pts: make([]param.Point, len(idx))}
			for j, k := range idx {
				req.hashes[j], req.pts[j] = hashes[k], pts[k]
			}
			status, body, err := t.n.call(ctx, peer, opEval, req.encode())
			var items []evalItem
			if err == nil && status == statusOK {
				items, err = decodeEvalReply(body)
			}
			if err != nil || status != statusOK || len(items) != len(idx) {
				add(t.n.fallbacks, int64(len(idx)))
				return
			}
			var hits int64
			for j, k := range idx {
				switch items[j].status {
				case statusOK:
					ms[k], ok[k] = items[j].m, true
				case statusErr:
					// A permanent evaluation error is a definitive answer: the
					// point is infeasible cluster-wide and memoizing it here is
					// correct.
					errs[k], ok[k] = errors.New(items[j].err), true
				default:
					continue
				}
				hits++
			}
			add(t.n.remoteHits, hits)
			add(t.n.fallbacks, int64(len(idx))-hits)
		}()
	}
	wg.Wait()
}

// call performs one bounded RPC round trip on the peer's persistent
// connection, redialing lazily and tearing the connection down on any
// failure so the next call starts clean.
func (n *Node) call(ctx context.Context, peerID string, op byte, payload []byte) (byte, []byte, error) {
	addr, ok := n.opts.Peers[peerID]
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown peer %q", peerID)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, nil, ErrClosed
	}
	p := n.peers[peerID]
	if p == nil {
		p = &peerClient{}
		n.peers[peerID] = p
	}
	n.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		dctx, cancel := context.WithTimeout(ctx, n.opts.RPCTimeout)
		c, err := n.opts.Network.DialContext(dctx, "tcp", addr)
		cancel()
		if err != nil {
			return 0, nil, err
		}
		p.conn = c
	}
	c := p.conn
	c.SetDeadline(time.Now().Add(n.opts.RPCTimeout))
	status, body, err := func() (byte, []byte, error) {
		if err := writeFrame(c, op, payload); err != nil {
			return 0, nil, err
		}
		return readFrame(c)
	}()
	c.SetDeadline(time.Time{})
	if err != nil {
		c.Close()
		p.conn = nil
		return 0, nil, err
	}
	return status, body, nil
}

// callIsland performs one island RPC on a fresh connection bounded by ctx
// alone - islands run for whole searches, far past RPCTimeout.
func (n *Node) callIsland(ctx context.Context, peerID string, payload []byte) (byte, []byte, error) {
	addr, ok := n.opts.Peers[peerID]
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown peer %q", peerID)
	}
	c, err := n.opts.Network.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	// The request frame must land promptly (a partitioned peer fails fast
	// so the caller can fall back); only the *result* may take a search's
	// worth of time.
	c.SetWriteDeadline(time.Now().Add(n.opts.RPCTimeout))
	if err := writeFrame(c, opIsland, payload); err != nil {
		return 0, nil, err
	}
	c.SetWriteDeadline(time.Time{})
	return readFrame(c)
}

// mailbox returns (creating on demand) the buffered channel migrants for
// (session, gen, island) are deposited into. Sender and receiver may
// arrive in either order.
func (n *Node) mailbox(k mailKey) chan []ga.Migrant {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := n.mail[k]
	if ch == nil {
		ch = make(chan []ga.Migrant, 1)
		n.mail[k] = ch
	}
	return ch
}

// deposit delivers migrants to a local mailbox without ever blocking: a
// second deposit for the same slot (impossible in a healthy run) is
// dropped rather than wedging an RPC handler.
func (n *Node) deposit(k mailKey, in []ga.Migrant) {
	select {
	case n.mailbox(k) <- in:
	default:
	}
}

// migrateMsg is the opMigrate JSON payload: migrants bound for one
// island's mailbox at one exchange boundary.
type migrateMsg struct {
	Session  string  `json:"session"`
	Gen      int     `json:"gen"`
	To       int     `json:"to"`
	Migrants [][]int `json:"migrants"`
}

// handleMigrate deposits a peer's migrants into the target island's
// local mailbox. Delivery is at-most-once and never blocks.
func (n *Node) handleMigrate(payload []byte) (byte, []byte) {
	var msg migrateMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return statusErr, []byte(err.Error())
	}
	in := make([]ga.Migrant, len(msg.Migrants))
	for i, g := range msg.Migrants {
		in[i] = ga.Migrant{Genome: param.Point(g)}
	}
	n.deposit(mailKey{session: msg.Session, gen: msg.Gen, island: msg.To}, in)
	return statusOK, nil
}

// decodeIslandSpec decodes an opIsland payload and fails closed on a spec
// this node cannot run: the island must index [0, Islands), and a spec of
// two or more islands must name the members its migration ring routes to.
func decodeIslandSpec(payload []byte) (IslandSpec, error) {
	var spec IslandSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return IslandSpec{}, err
	}
	if spec.Island < 0 || spec.Island >= spec.Islands {
		return IslandSpec{}, fmt.Errorf("cluster: island %d outside [0, %d)", spec.Island, spec.Islands)
	}
	if spec.Islands > 1 && len(spec.Members) == 0 {
		return IslandSpec{}, fmt.Errorf("cluster: %d islands over no members", spec.Islands)
	}
	return spec, nil
}

// handleIsland runs one island of a cluster session on this node.
func (n *Node) handleIsland(payload []byte) (byte, []byte) {
	spec, err := decodeIslandSpec(payload)
	if err != nil {
		return statusErr, []byte(err.Error())
	}
	if n.opts.RunIsland == nil {
		return statusErr, []byte("node cannot host islands")
	}
	n.beginIsland(spec.Session)
	defer n.endIsland(spec.Session)
	res, err := n.opts.RunIsland(n.baseCtx, spec)
	if err != nil {
		return statusErr, []byte(err.Error())
	}
	body, err := json.Marshal(res)
	if err != nil {
		return statusErr, []byte(err.Error())
	}
	return statusOK, body
}

// beginIsland/endIsland track live local islands per session; when the
// last one finishes, the session's leftover mailboxes (deposits whose
// receiver timed out or converged early) are purged.
func (n *Node) beginIsland(session string) {
	n.mu.Lock()
	n.sessions[session]++
	n.mu.Unlock()
}

func (n *Node) endIsland(session string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sessions[session]--; n.sessions[session] <= 0 {
		delete(n.sessions, session)
		for k := range n.mail {
			if k.session == session {
				delete(n.mail, k)
			}
		}
	}
}

// exchangeFor builds the ga.MigrantExchange for one island of a cluster
// session over the ring topology: island i ships its emigrants to island
// (i+1) mod K and adopts whatever island (i-1+K) mod K shipped to it.
// The pairing depends only on (generation, topology) - and the island
// seeds only on the session seed - so the whole schedule is a pure
// function of (seed, generation, topology). Failed sends and expired
// receives degrade to an unaided generation, never a wrong one.
func (n *Node) exchangeFor(session string, island, islands int, members []string) ga.MigrantExchange {
	return func(ctx context.Context, gen int, out []ga.Migrant) ([]ga.Migrant, error) {
		if islands <= 1 {
			return nil, nil
		}
		to := (island + 1) % islands
		target := members[to%len(members)]
		if target == n.opts.ID {
			n.deposit(mailKey{session: session, gen: gen, island: to}, out)
			add(n.sent, int64(len(out)))
		} else {
			msg := migrateMsg{Session: session, Gen: gen, To: to, Migrants: make([][]int, len(out))}
			for i, m := range out {
				msg.Migrants[i] = m.Genome
			}
			payload, err := json.Marshal(msg)
			if err != nil {
				return nil, err
			}
			if status, _, err := n.call(ctx, target, opMigrate, payload); err != nil || status != statusOK {
				inc(n.timeouts)
			} else {
				add(n.sent, int64(len(out)))
			}
		}
		timer := time.NewTimer(n.opts.MigrationTimeout)
		defer timer.Stop()
		select {
		case in := <-n.mailbox(mailKey{session: session, gen: gen, island: island}):
			add(n.recv, int64(len(in)))
			return in, nil
		case <-timer.C:
			inc(n.timeouts)
			return nil, fmt.Errorf("cluster: island %d migration timeout at generation %d", island, gen)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-n.baseCtx.Done():
			return nil, ErrClosed
		}
	}
}
