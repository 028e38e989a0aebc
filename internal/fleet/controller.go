package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vision"
)

// defaultTimeout bounds how long controller round trips (deploy,
// undeploy, fetch) wait for an edge response.
const defaultTimeout = 30 * time.Second

// ErrDeferred is returned by intent-tracked operations (Deploy,
// Undeploy) when the node has no live session: the intent is
// recorded, and reconciliation applies it when the node reconnects.
var ErrDeferred = errors.New("fleet: node offline, intent recorded for reconnect")

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// Timeout bounds request/response round trips (30 s when
	// zero).
	Timeout time.Duration
	// HeartbeatMiss is the liveness budget: a session whose edge has
	// been silent for HeartbeatMiss consecutive heartbeat intervals
	// (as announced in its hello) is evicted — the session closes,
	// the eviction is counted, and the node is expected to reconnect.
	// Zero disables liveness eviction; nodes with heartbeats disabled
	// are never evicted.
	HeartbeatMiss int
	// Shards is the number of controller shards the router places
	// nodes on (1 when zero or negative — the unsharded controller).
	// Each shard owns the full per-node state of the nodes the
	// consistent-hash ring assigns it. The count is fixed for the life
	// of the controller: a durable controller reopened with a different
	// count re-homes its nodes during recovery.
	Shards int
	// OnSession, when non-nil, runs in its own goroutine for every
	// edge session that completes its handshake — the hook ffserve
	// uses for deploy-on-connect. Resumed sessions fire it too; check
	// Session.Resumed to avoid re-deploying state reconciliation
	// already restores.
	OnSession func(*Session)
	// OnUpload, when non-nil, is called from the session's reader
	// goroutine for every deduplicated upload received. It must not
	// block on a round trip to the same session (spawn a goroutine
	// for that).
	OnUpload func(*Session, core.Upload)
	// Log receives structured session-lifecycle events (connects,
	// resumes, stale-session replacements, liveness evictions) and
	// drift threshold transitions. Nil discards them.
	Log *slog.Logger
	// Drift parameterizes the semantic drift detector run against the
	// per-MC score sketches heartbeats carry (zero fields take the
	// package defaults).
	Drift DriftConfig
	// StateDir, when set, makes the controller durable: each shard
	// keeps an append-only WAL plus snapshot store in a "shard-NNNN"
	// directory under StateDir, every intent, ledger, and drift-baseline
	// mutation is logged before it is acknowledged anywhere, and
	// OpenController replays the store on start. Empty keeps the
	// controller fully in-memory.
	StateDir string
	// SnapshotEvery is the wal-record count between automatic
	// per-shard snapshot compactions (1024 when zero;
	// negative disables automatic compaction — snapshots then happen
	// only at Close and recovery).
	SnapshotEvery int
	// WALSync forces an fsync after every wal write: one write, and so
	// one fsync, covers a group of records — a session's uploads that
	// arrived together — and no upload is acked before the fsync that
	// covers it. Off, writes reach the OS page cache synchronously, still
	// before any ack — they survive a process kill, and an OS crash
	// loses at most a tail that reopen detects and truncates.
	WALSync bool
}

// defaultSnapshotEvery is the wal-record count between automatic
// per-shard snapshot compactions.
const defaultSnapshotEvery = 1024

// deployment is one intended microclassifier deployment. Version
// mirrors the Spec.Version decoded from MC, cached so reconciliation
// can restate it without re-decoding the artifact.
type deployment struct {
	MC        []byte
	Threshold float32
	Version   uint64
}

// nodeState is a shard's durable record of one edge node, keyed by
// node name. It survives sessions — when the node reconnects, the
// owning shard reconciles the node's reported state against the
// intent here, and upload accounting continues without duplication —
// and it survives re-homes: recovery under a changed shard count
// moves the whole record to its new owner as one move-in, so the
// ledger high-water mark, intent, and lifecycle counters never fork.
// Intent, Gen, LastSeq, DC, and the logged parts of Drift change only
// in shardState.apply; Evicted and Reconnects are soft.
type nodeState struct {
	// Intent is the intended deployment: stream -> MC name -> bytes.
	Intent map[string]map[string]deployment
	// Gen counts intent changes; deploy/undeploy requests carry it so
	// the node can report how current it is in a resume hello.
	Gen uint64
	// LastSeq is the highest upload sequence number accepted from the
	// node; retransmissions at or below it are dropped.
	LastSeq uint64
	// DC is the node's upload ledger: its deduplicated uploads across
	// sessions and re-homes, and the only copy of them the controller
	// keeps (Controller.Datacenter merges every node's).
	DC *core.Datacenter
	// Evicted counts sessions the controller force-closed (liveness
	// timeouts and stale sessions replaced by a reconnect).
	Evicted int
	// Reconnects counts resume hellos accepted for the node.
	Reconnects int
	// Rehomed counts moves between logs (recovery placing the node on a
	// different shard than its source log). The mover bumps it just
	// before committing the move-in record that carries it, so it
	// doubles as the node's incarnation number: when several logs hold
	// copies of the node, the highest Rehomed wins.
	Rehomed int
	// Drift is the per-(stream, MC) drift-detection state, keyed
	// "stream/mc". It rides the node record: a re-home moves the whole
	// record, so baselines, window boundaries, and scores survive
	// re-homes without forking or resetting.
	Drift map[string]*driftState
}

// Controller is the datacenter side of the fleet control plane: a
// thin router in front of one or more controller shards. The router
// owns the listener and the consistent-hash ring; each shard owns the
// session registry, exactly-once upload ledger, deploy-generation
// intent, and datacenter stores for the nodes hashed onto it.
// Connections are routed by the node name in the hello; every
// datacenter API call (ListNodes, Deploy, Fetch) resolves the owning
// shard the same way, so callers never see the sharding except
// through ShardStats and NodeInfo.Shard.
type Controller struct {
	cfg ControllerConfig

	// shards and ring are fixed once OpenController returns, so routing
	// is a pure function of the node name and reads them without a
	// lock: a node's state lives on exactly one shard for the life of
	// the process.
	shards []*shard
	ring   *ring

	nextID atomic.Uint64 // session IDs, unique across shards

	// mu guards ln and conns.
	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{} // every open conn, incl. pre-hello
	wg    sync.WaitGroup
}

// NewController constructs a controller with cfg.Shards shards. With
// cfg.StateDir set it recovers durable state and panics if the state
// store is unreadable — use OpenController to handle that error.
func NewController(cfg ControllerConfig) *Controller {
	c, _, err := OpenController(cfg)
	if err != nil {
		panic("fleet: " + err.Error())
	}
	return c
}

// OpenController constructs a controller and, when cfg.StateDir is
// set, replays the per-shard WAL + snapshot store into it: deploy
// intent and generations, exactly-once upload ledgers, model versions,
// and drift baselines all resume where the previous process left them.
// The returned stats are nil for an in-memory controller.
func OpenController(cfg ControllerConfig) (*Controller, *RecoveryStats, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	cfg.Drift.fillDefaults()
	c := &Controller{
		cfg:   cfg,
		ring:  newRing(cfg.Shards),
		conns: make(map[net.Conn]struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, newShard(i, c))
	}
	if cfg.StateDir == "" {
		return c, nil, nil
	}
	stats, err := c.recoverState()
	if err != nil {
		for _, sh := range c.shards {
			if sh.wal != nil {
				sh.wal.Close()
			}
		}
		return nil, nil, err
	}
	cfg.Log.Info("fleet: state recovered",
		"dirs", stats.Dirs, "nodes", stats.Nodes, "moved", stats.Moved,
		"records", stats.RecordsReplayed, "snapshot_bytes", stats.SnapshotBytes,
		"torn_bytes", stats.TornBytes,
		"replay", stats.Replay)
	return c, stats, nil
}

// ShardOf returns the shard index owning a node name.
func (c *Controller) ShardOf(node string) int {
	return c.ring.owner(node)
}

// onNode runs f with the owning shard and the node's durable state,
// both under the shard mutex — the one way controller APIs touch
// per-node state. With create false and the node unknown it returns
// false without calling f.
func (c *Controller) onNode(name string, create bool, f func(*shard, *nodeState)) bool {
	sh := c.shards[c.ring.owner(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.Nodes[name]
	if st == nil {
		if !create {
			return false
		}
		st = sh.node(name)
	}
	f(sh, st)
	return true
}

// Datacenter returns a merged snapshot of every node's ledger: every
// deduplicated upload from every session, keyed "node/stream/mc",
// each key's uploads in arrival order. It is built from the ledgers of
// the nodes each shard owns, under that shard's lock, so the snapshot
// is consistent per shard and safe to query while sessions are live.
func (c *Controller) Datacenter() *core.Datacenter {
	merged := core.NewDatacenter()
	for _, sh := range c.shards {
		sh.mu.Lock()
		for name, st := range sh.Nodes {
			merged.Absorb(name+"/", st.DC)
		}
		sh.mu.Unlock()
	}
	return merged
}

// WithNodeDatacenter runs f with the named node's cross-session
// receiver under its owning shard's lock: every upload the node ever
// delivered (deduplicated across reconnects and re-homes), keyed with
// the edge's own "stream/mc" naming. It returns an error for a node
// the controller has never seen.
func (c *Controller) WithNodeDatacenter(node string, f func(*core.Datacenter)) error {
	ok := c.onNode(node, false, func(_ *shard, st *nodeState) {
		f(st.DC)
	})
	if !ok {
		return fmt.Errorf("fleet: unknown node %q", node)
	}
	return nil
}

// Listen starts accepting on the given address and returns the bound
// address (useful with ":0").
func (c *Controller) Listen(network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	c.Serve(ln)
	return ln.Addr(), nil
}

// Serve starts accepting sessions from an established listener — any
// net.Listener, including internal/simnet's fault-injecting one. It
// returns immediately; Close stops the listener and drains.
func (c *Controller) Serve(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.mu.Lock()
			c.conns[conn] = struct{}{}
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer func() {
					conn.Close()
					c.mu.Lock()
					delete(c.conns, conn)
					c.mu.Unlock()
				}()
				_ = c.handleConn(conn)
			}()
		}
	}()
}

// Close stops the listener, tears down every open connection (live
// sessions and half-finished handshakes alike), and
// waits for their goroutines to drain. A durable controller then
// writes a final snapshot per shard and closes the state store, so
// the next open replays no wal at all.
func (c *Controller) Close() error {
	err := c.teardown()
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			if serr := sh.snapshotLocked(); serr != nil {
				c.cfg.Log.Error("fleet: close snapshot failed", "shard", sh.id, "err", serr)
			}
			sh.wal.Close()
			sh.wal = nil
		}
		sh.mu.Unlock()
	}
	return err
}

// Crash closes the controller the hard way: connections drop and the
// state store is abandoned with no final snapshot or sync, leaving
// exactly what a killed process would leave. A recovery test helper —
// production shutdown is Close.
func (c *Controller) Crash() {
	_ = c.teardown()
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			sh.wal.Abandon()
			sh.wal = nil
		}
		sh.mu.Unlock()
	}
}

// teardown stops the listener and drains every connection goroutine.
func (c *Controller) teardown() error {
	c.mu.Lock()
	ln := c.ln
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return err
}

// handleConn checks the protocol header, reads and validates the
// hello, and hands the connection to the node's owning shard on the
// consistent-hash ring. The pre-hello reads are bounded by the
// controller timeout: a peer that dials and stalls must not pin a
// goroutine and connection until controller shutdown. A peer
// announcing a version this build does not speak is refused with
// transport.ErrVersion and the connection closed.
func (c *Controller) handleConn(conn net.Conn) error {
	if err := conn.SetReadDeadline(time.Now().Add(c.cfg.Timeout)); err != nil {
		return err
	}
	if _, err := transport.ReadHeader(conn); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	// The hello must arrive within the controller timeout; after it,
	// liveness (when enabled) takes over the read bounds.
	kind, body, err := transport.ReadRecordDeadline(conn, c.cfg.Timeout)
	if err != nil {
		return err
	}
	if kind != transport.KindHello {
		return fmt.Errorf("fleet: session opened with record kind %d, want hello", kind)
	}
	var hello Hello
	if err := transport.DecodeRecord(body, &hello); err != nil {
		return err
	}
	if hello.Node == "" {
		return errors.New("fleet: hello without a node name")
	}
	return c.shards[c.ring.owner(hello.Node)].serveSession(conn, hello)
}

// reconcileItem is one reconciliation push: a re-deploy of missing
// intent, or (dep nil) a withdrawal of a managed MC whose intent was
// removed while the node was away.
type reconcileItem struct {
	stream, name string
	dep          *deployment
}

// reconcileWorkLocked diffs the node's reported deployment against
// the controller's intent: intended MCs missing from the report are
// re-pushed, and managed MCs absent from intent are withdrawn.
// Locally deployed MCs (never shipped through intent tracking) are
// invisible here — the node only reports intent-managed names — so
// reconciliation never touches them. Callers hold the owning shard's
// lock.
func reconcileWorkLocked(st *nodeState, hello Hello) []reconcileItem {
	var work []reconcileItem
	for stream, mcs := range st.Intent {
		reported := hello.Deployed[stream]
		has := make(map[string]bool, len(reported))
		for _, name := range reported {
			has[name] = true
		}
		for name, dep := range mcs {
			if !has[name] {
				d := dep
				work = append(work, reconcileItem{stream: stream, name: name, dep: &d})
			}
		}
	}
	// Withdrawals only apply when this controller actually has intent
	// history for the node (gen > 0). A fresh controller (restarted
	// process) seeing an unknown returning node must adopt it as-is,
	// not strip MCs a predecessor shipped.
	if st.Gen > 0 {
		for stream, reported := range hello.Deployed {
			for _, name := range reported {
				if _, intended := st.Intent[stream][name]; !intended {
					work = append(work, reconcileItem{stream: stream, name: name})
				}
			}
		}
	}
	return work
}

// runReconcile drives the snapshotted work against the session. Push
// errors are left for the next resume: the session may well be dying
// again already.
func runReconcile(s *Session, gen uint64, work []reconcileItem) {
	sort.Slice(work, func(i, j int) bool {
		if work[i].stream != work[j].stream {
			return work[i].stream < work[j].stream
		}
		return work[i].name < work[j].name
	})
	for _, w := range work {
		if w.dep != nil {
			_ = s.deploy(w.stream, w.dep.MC, w.dep.Threshold, gen, w.dep.Version)
		} else {
			_ = s.undeploy(w.stream, w.name, gen)
		}
	}
}

// NodeInfo is one connected edge's registry entry.
type NodeInfo struct {
	ID        uint64
	Node      string
	Streams   []StreamInfo
	Uploads   int
	Heartbeat Heartbeat
	// HeartbeatAge is the time since the last heartbeat (negative if
	// none arrived yet).
	HeartbeatAge time.Duration
	// Resumed reports whether the session is a reconnect.
	Resumed bool
	// Shard is the controller shard hosting the session.
	Shard int
	// Evicted and Reconnects are the node's lifetime lifecycle
	// counters (sessions force-closed by the controller; resume
	// hellos accepted) — they survive the sessions they describe.
	Evicted    int
	Reconnects int
}

// ListNodes returns the connected edge sessions across all shards,
// sorted by node name then session ID.
func (c *Controller) ListNodes() []NodeInfo {
	var infos []NodeInfo
	for _, sh := range c.shards {
		sh.mu.Lock()
		sessions := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			sessions = append(sessions, s)
		}
		counters := make(map[string][2]int, len(sh.Nodes))
		for name, st := range sh.Nodes {
			counters[name] = [2]int{st.Evicted, st.Reconnects}
		}
		sh.mu.Unlock()
		for _, s := range sessions {
			hb, at := s.lastHeartbeat()
			age := time.Duration(-1)
			if !at.IsZero() {
				age = time.Since(at)
			}
			lc := counters[s.Node()]
			infos = append(infos, NodeInfo{
				ID: s.ID(), Node: s.Node(), Streams: s.Streams(),
				Uploads: s.received(), Heartbeat: hb, HeartbeatAge: age,
				Resumed: s.Resumed(), Shard: sh.id,
				Evicted: lc[0], Reconnects: lc[1],
			})
		}
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Node != infos[j].Node {
			return infos[i].Node < infos[j].Node
		}
		return infos[i].ID < infos[j].ID
	})
	return infos
}

// Lifecycle returns the fleet-wide lifecycle totals: sessions the
// controller evicted (liveness timeouts + stale sessions replaced on
// resume) and resume hellos accepted. Both survive the sessions they
// count, and both ride the node records through re-homes.
func (c *Controller) Lifecycle() (evicted, reconnects int) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, st := range sh.Nodes {
			evicted += st.Evicted
			reconnects += st.Reconnects
		}
		sh.mu.Unlock()
	}
	return evicted, reconnects
}

// ShardStats snapshots every shard's load — node and session counts,
// its nodes' ledger totals, heartbeat-gap digests — ordered by shard
// index.
func (c *Controller) ShardStats() []ShardStat {
	stats := make([]ShardStat, 0, len(c.shards))
	for _, sh := range c.shards {
		stats = append(stats, sh.stats())
	}
	return stats
}

// ShardLoads converts each shard's live sessions into per-stream
// NodeLoads, indexed by shard. Summarize each slice with
// metrics.SummarizeFleet and merge with metrics.MergeFleet for the
// fleet rollup; the result is identical to summarizing the
// concatenation (the merge is associative and commutative).
func (c *Controller) ShardLoads() [][]metrics.NodeLoad {
	loads := make([][]metrics.NodeLoad, 0, len(c.shards))
	for _, sh := range c.shards {
		loads = append(loads, sh.loads())
	}
	return loads
}

// Session finds a live session by node name on its owning shard. When
// several sessions share a name the most recent wins.
func (c *Controller) Session(node string) (*Session, error) {
	var s *Session
	c.onNode(node, false, func(sh *shard, _ *nodeState) {
		s = sh.liveSessionLocked(node)
	})
	if s == nil {
		return nil, fmt.Errorf("fleet: no connected node %q", node)
	}
	return s, nil
}

// Deploy ships serialized microclassifier bytes (a filter.(*MC).Save
// stream, e.g. an fftrain weights file) to a stream of the named
// node, recording the deployment as intent on the owning shard so a
// node that loses it (crash, partition) gets it re-pushed on
// reconnect. With the node offline, the intent is still recorded and
// ErrDeferred returned. An intent the shard cannot log (a fenced shard,
// see shard.commit) is neither recorded nor pushed, and the error
// wraps the log's. A deployment the edge itself rejects (errRejected)
// is rolled back out of the intent; a transport failure keeps it,
// because the node's state is unknown and reconciliation will settle
// it.
func (c *Controller) Deploy(node, stream string, mc []byte, threshold float32) error {
	info, nameErr := filter.MCInfo(bytes.NewReader(mc))
	name := info.Name

	var prev deployment
	var had bool
	var gen uint64
	var sess *Session
	var logErr error
	c.onNode(node, true, func(sh *shard, st *nodeState) {
		if nameErr == nil {
			prev, had = st.Intent[stream][name]
			gen = st.Gen + 1
			_, logErr = sh.commit(&intentRec{
				Node: node, Stream: stream, Name: name,
				MC: mc, Threshold: threshold, Version: info.Version, Gen: gen,
			})
		}
		sess = sh.liveSessionLocked(node)
	})

	if logErr != nil {
		return fmt.Errorf("fleet: deploy %s/%s %q: %w", node, stream, name, logErr)
	}
	if sess == nil {
		if nameErr != nil {
			return fmt.Errorf("fleet: no connected node %q and undecodable MC bytes: %w", node, nameErr)
		}
		return fmt.Errorf("fleet: deploy %s/%s %q: %w", node, stream, name, ErrDeferred)
	}
	err := sess.deploy(stream, mc, threshold, gen, info.Version)
	if err != nil && nameErr == nil && errors.Is(err, errRejected) {
		// The node answered and refused: this intent can never apply.
		// Roll back to the previous deployment, or to none; on a shard
		// fenced since, the rollback is not logged and the intent stays.
		c.onNode(node, true, func(sh *shard, st *nodeState) {
			sh.commit(&intentRec{
				Node: node, Stream: stream, Name: name,
				MC: prev.MC, Threshold: prev.Threshold, Version: prev.Version,
				Gen: st.Gen + 1, Remove: !had,
			})
		})
	}
	return err
}

// Undeploy removes a microclassifier from a stream of the named node
// and withdraws it from the deployment intent, so reconciliation
// stops restoring it. With the node offline the withdrawal is
// recorded and ErrDeferred returned; the node's copy is removed when
// it reconnects. A withdrawal the shard cannot log is neither recorded
// nor pushed, and the error wraps the log's.
func (c *Controller) Undeploy(node, stream, mcName string) error {
	var gen uint64
	var sess *Session
	var logErr error
	c.onNode(node, true, func(sh *shard, st *nodeState) {
		if _, had := st.Intent[stream][mcName]; had {
			_, logErr = sh.commit(&intentRec{
				Node: node, Stream: stream, Name: mcName, Gen: st.Gen + 1, Remove: true,
			})
		}
		gen = st.Gen
		sess = sh.liveSessionLocked(node)
	})
	if logErr != nil {
		return fmt.Errorf("fleet: undeploy %s/%s %q: %w", node, stream, mcName, logErr)
	}
	if sess == nil {
		return fmt.Errorf("fleet: undeploy %s/%s %q: %w", node, stream, mcName, ErrDeferred)
	}
	return sess.undeploy(stream, mcName, gen)
}

// Intent returns the controller's intended MC deployment for a node
// as stream -> sorted MC names, with the current generation.
func (c *Controller) Intent(node string) (map[string][]string, uint64) {
	var out map[string][]string
	var gen uint64
	c.onNode(node, false, func(_ *shard, st *nodeState) {
		out = make(map[string][]string, len(st.Intent))
		for stream, mcs := range st.Intent {
			names := make([]string, 0, len(mcs))
			for name := range mcs {
				names = append(names, name)
			}
			sort.Strings(names)
			out[stream] = names
		}
		gen = st.Gen
	})
	return out, gen
}

// IntentMCBytes returns the serialized bytes the controller intends
// for one node/stream/MC, for byte-level verification of converged
// deployments.
func (c *Controller) IntentMCBytes(node, stream, mcName string) (mc []byte, ok bool) {
	c.onNode(node, false, func(_ *shard, st *nodeState) {
		if dep, found := st.Intent[stream][mcName]; found {
			mc = append([]byte(nil), dep.MC...)
			ok = true
		}
	})
	return mc, ok
}

// Fetch demand-fetches archived frames [start, end) of a stream on
// the named node, re-encoded at bitrate. Only the accounting crosses
// the wire; use FetchFrames to stream the frames themselves.
func (c *Controller) Fetch(node, stream string, start, end int, bitrate float64) (FetchResponse, error) {
	s, err := c.Session(node)
	if err != nil {
		return FetchResponse{}, err
	}
	return s.Fetch(stream, start, end, bitrate)
}

// FetchFrames demand-fetches archived frames [start, end) of a stream
// on the named node and streams the reconstructions back through the
// v2 transport.
func (c *Controller) FetchFrames(node, stream string, start, end int, bitrate float64) ([]*vision.Image, FetchResponse, error) {
	s, err := c.Session(node)
	if err != nil {
		return nil, FetchResponse{}, err
	}
	return s.FetchFrames(stream, start, end, bitrate)
}
