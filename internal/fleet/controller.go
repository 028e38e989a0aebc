package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vision"
	"repro/internal/walog"
)

// DefaultTimeout bounds how long controller round trips (deploy,
// undeploy, fetch) wait for an edge response.
const DefaultTimeout = 30 * time.Second

// ErrDeferred is returned by intent-tracked operations (Deploy,
// Undeploy) when the node has no live session: the intent is
// recorded, and reconciliation applies it when the node reconnects.
var ErrDeferred = errors.New("fleet: node offline, intent recorded for reconnect")

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// Timeout bounds request/response round trips (DefaultTimeout
	// when zero).
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
	// consistent-hash ring assigns it; Resize changes the count live.
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
	// Canary parameterizes the canary evaluator that decides
	// promotion or rollback for shadow candidates started with
	// StartCanary (zero fields take the package defaults).
	Canary CanaryConfig
	// StateDir, when set, makes the controller durable: each shard
	// keeps an append-only WAL plus snapshot store in a "shard-NNNN"
	// directory under StateDir, every intent, ledger, canary, and
	// drift-baseline mutation is logged before it is acknowledged
	// anywhere, and OpenController replays the store on start. Empty
	// keeps the controller fully in-memory.
	StateDir string
	// SnapshotEvery is the wal-record count between automatic
	// per-shard snapshot compactions (DefaultSnapshotEvery when zero;
	// negative disables automatic compaction — snapshots then happen
	// only at Close and recovery).
	SnapshotEvery int
	// WALSync forces an fsync after every appended record. Off,
	// appends reach the OS page cache synchronously — they survive a
	// process kill, and an OS crash loses at most a tail that reopen
	// detects and truncates.
	WALSync bool
}

// DefaultSnapshotEvery is the wal-record count between automatic
// per-shard snapshot compactions.
const DefaultSnapshotEvery = 1024

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
// and it survives re-homes: a shard-count change moves the whole
// record to the new owner as one move-in, so the ledger high-water
// mark, intent, and lifecycle counters never fork. Intent, Gen,
// LastSeq, DC, and the logged parts of Drift and Canary change only in
// shardState.apply; Evicted and Reconnects are soft.
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
	// Rehomed counts moves between logs (a Resize re-home, or recovery
	// placing the node on a different shard than its source log). The
	// mover bumps it just before committing the move-in record that
	// carries it, so it doubles as the node's incarnation number: when
	// several logs hold copies of the node, the highest Rehomed wins.
	Rehomed int
	// Drift is the per-(stream, MC) drift-detection state, keyed
	// "stream/mc". It rides the node record: a Resize moves the whole
	// record, so baselines, window boundaries, and scores survive
	// re-homes without forking or resetting.
	Drift map[string]*driftState
	// Canary is the per-(stream, MC) canary-evaluation state, keyed
	// "stream/mc" like Drift. It rides the node record through
	// re-homes the same way, so an in-flight canary window survives a
	// Resize without losing its baselines or double-deciding.
	Canary map[string]*canaryState
}

// Controller is the datacenter side of the fleet control plane: a
// thin router in front of one or more controller shards. The router
// owns the listener, the consistent-hash ring, and the placement
// epoch; each shard owns the session registry, exactly-once upload
// ledger, deploy-generation intent, and datacenter stores for the
// nodes hashed onto it. Connections are routed by the node name in
// the hello; every datacenter API call (ListNodes, Deploy, Fetch)
// resolves the owning shard the same way, so callers never see the
// sharding except through ShardStats and NodeInfo.Shard.
type Controller struct {
	cfg ControllerConfig

	// epoch is the placement epoch, bumped (before the ring swap) by
	// every Resize. Shards compare it against the epoch a routing
	// decision was made under and refuse stale placements, which is
	// what keeps a node's state on exactly one shard at all times.
	epoch  atomic.Uint64
	nextID atomic.Uint64 // session IDs, unique across shards

	mu     sync.Mutex
	ln     net.Listener
	shards []*shard
	ring   *ring
	conns  map[net.Conn]struct{} // every open conn, incl. pre-hello
	wg     sync.WaitGroup
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
// intent and generations, exactly-once upload ledgers, model
// versions, canary records, and drift baselines all resume where the
// previous process left them. The returned stats are nil for an
// in-memory controller.
func OpenController(cfg ControllerConfig) (*Controller, *RecoveryStats, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	cfg.Drift.fillDefaults()
	cfg.Canary.fillDefaults()
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
		"dirs", stats.Dirs, "nodes", stats.Nodes,
		"records", stats.RecordsReplayed, "snapshot_bytes", stats.SnapshotBytes,
		"torn_bytes", stats.TornBytes,
		"replay", stats.Replay)
	return c, stats, nil
}

// NumShards returns the current shard count.
func (c *Controller) NumShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// ShardOf returns the shard index currently owning a node name.
func (c *Controller) ShardOf(node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.owner(node)
}

// placement resolves a node's owning shard together with the
// placement epoch the answer is valid under.
func (c *Controller) placement(node string) (int, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.owner(node), c.epoch.Load()
}

// snapshotShards returns the current shard slice for iteration.
func (c *Controller) snapshotShards() []*shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*shard(nil), c.shards...)
}

// onNode runs f with the owning shard and the node's durable state,
// both locked under the shard mutex and validated against the
// placement epoch — the one way controller APIs touch per-node state.
// If the epoch moves between the routing lookup and the shard lock
// (a concurrent Resize), it re-routes and retries; the loop runs at
// most once per concurrent resize. With create false and the node
// unknown it returns false without calling f.
func (c *Controller) onNode(name string, create bool, f func(*shard, *nodeState)) bool {
	for {
		c.mu.Lock()
		sh := c.shards[c.ring.owner(name)]
		epoch := c.epoch.Load()
		c.mu.Unlock()
		sh.mu.Lock()
		if c.epoch.Load() != epoch {
			sh.mu.Unlock()
			continue
		}
		st := sh.Nodes[name]
		if st == nil {
			if !create {
				sh.mu.Unlock()
				return false
			}
			st = sh.node(name)
		}
		f(sh, st)
		sh.mu.Unlock()
		return true
	}
}

// Datacenter returns a merged snapshot of every node's ledger: every
// deduplicated upload from every session, keyed "node/stream/mc",
// each key's uploads in arrival order. It is built from the ledgers of
// the nodes each shard owns, under that shard's lock, so the snapshot
// is consistent per shard and safe to query while sessions are live.
func (c *Controller) Datacenter() *core.Datacenter {
	merged := core.NewDatacenter()
	for _, sh := range c.snapshotShards() {
		sh.mu.Lock()
		for name, st := range sh.Nodes {
			merged.Absorb(name+"/", st.DC)
		}
		sh.mu.Unlock()
	}
	return merged
}

// WithDatacenter runs f with the merged snapshot of every node's
// ledger (see Datacenter). f must not call back into the controller.
func (c *Controller) WithDatacenter(f func(*core.Datacenter)) {
	f(c.Datacenter())
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
	for _, sh := range c.snapshotShards() {
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
	for _, sh := range c.snapshotShards() {
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
// hello, resolves the owning shard on the consistent-hash ring, and
// hands the connection over pinned to the placement epoch. The shard
// re-checks the epoch before registering and redirects if a resize
// raced the hand-off. The pre-hello reads are bounded by the
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
	c.mu.Lock()
	sh := c.shards[c.ring.owner(hello.Node)]
	epoch := c.epoch.Load()
	c.mu.Unlock()
	return sh.serveSession(conn, hello, epoch)
}

// Resize changes the shard count live and returns how many nodes
// moved. New placement takes effect atomically: the placement epoch
// bumps first, so in-flight registrations and API calls that routed
// under the old ring abort and retry instead of landing on a shard
// that no longer owns their node. Moved nodes' state records
// (upload ledger and its high-water mark, intent, lifecycle counters)
// transfer wholesale to their new owner as move-in records, and their
// live sessions are closed with a redirect — the edge reconnects and
// its resume hello reconciles on the new shard exactly like any other
// reconnect. Ledgers move with their nodes, so fleet-global sums are
// preserved. Shrinking deletes a retired shard's state directory only
// once every move-in out of it is synced on its new owner; otherwise
// the directory stays and the next recovery re-homes from it.
func (c *Controller) Resize(shards int) (moved int, err error) {
	if shards < 1 {
		return 0, fmt.Errorf("fleet: shard count %d, need at least 1", shards)
	}
	c.mu.Lock()
	old := len(c.shards)
	if shards == old {
		c.mu.Unlock()
		return 0, nil
	}
	// A durable controller opens the new shards' state stores before
	// committing to the resize: a store that cannot open must abort
	// the whole operation, not leave a shard accepting state it cannot
	// log.
	var newLogs []*walog.Log
	if c.cfg.StateDir != "" && shards > old {
		for i := old; i < shards; i++ {
			l, lerr := walog.Open(filepath.Join(c.cfg.StateDir, shardDirName(i)))
			if lerr != nil {
				for _, opened := range newLogs {
					opened.Close()
				}
				c.mu.Unlock()
				return 0, fmt.Errorf("fleet: open shard log %d: %w", i, lerr)
			}
			newLogs = append(newLogs, l)
		}
	}
	// Epoch first, then the ring: any routing decision that read the
	// old ring fails its epoch check, and any that reads the new
	// epoch (via onNode's retry) blocks on c.mu until the new ring is
	// in place.
	c.epoch.Add(1)
	epoch := c.epoch.Load()
	for i := old; i < shards; i++ {
		sh := newShard(i, c)
		if newLogs != nil {
			sh.wal = newLogs[i-old]
		}
		c.shards = append(c.shards, sh)
	}
	c.ring = newRing(shards)

	// Collect the moves under the new ring. After the epoch bump no
	// new node record can appear under the old placement (creation
	// paths re-check the epoch), so the scan is complete.
	type move struct {
		node     string
		from, to int
	}
	var moves []move
	for idx, sh := range c.shards {
		sh.mu.Lock()
		for name := range sh.Nodes {
			if to := c.ring.owner(name); to != idx {
				moves = append(moves, move{node: name, from: idx, to: to})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].node < moves[j].node })

	type redirectTarget struct {
		s  *Session
		to int
	}
	var redirects []redirectTarget
	// lost marks each shard a move-in out of which did not reach its
	// new owner's log (or, below, its disk).
	lost := make(map[int]bool)
	for _, m := range moves {
		from, to := c.shards[m.from], c.shards[m.to]
		from.mu.Lock()
		st := from.Nodes[m.node]
		if st == nil {
			from.mu.Unlock()
			continue
		}
		delete(from.Nodes, m.node)
		for id, s := range from.sessions {
			if s.Node() == m.node {
				// Not an eviction: the node did nothing wrong, the map
				// changed. markDone pins ErrRedirected as the terminal
				// error, so the post-run liveness accounting in
				// serveSession cannot also count this session.
				s.markDone(ErrRedirected)
				delete(from.sessions, id)
				redirects = append(redirects, redirectTarget{s: s, to: m.to})
			}
		}
		from.mu.Unlock()
		// The move-in record carries the node's full state at its next
		// incarnation: whichever log last wrote the node at the highest
		// Rehomed wins recovery, so the stale copy still sitting in the
		// source shard's log can never resurrect.
		to.mu.Lock()
		st.Rehomed++
		if !to.commit(&moveInRec{Name: m.node, Node: st}) {
			lost[m.from] = true
		}
		to.mu.Unlock()
		moved++
		c.cfg.Log.Info("fleet: node re-homed",
			"node", m.node, "from", m.from, "to", m.to, "epoch", epoch)
	}

	if shards < old {
		// The moves above emptied the retired shards, but until the
		// move-ins out of them are synced, a retired directory is the
		// only durable copy of its nodes: sync every log that took one.
		synced := make(map[int]bool)
		for _, m := range moves {
			if m.from < shards {
				continue
			}
			if _, done := synced[m.to]; !done {
				to := c.shards[m.to]
				to.mu.Lock()
				synced[m.to] = to.wal == nil || to.wal.Sync() == nil
				to.mu.Unlock()
			}
			if !synced[m.to] {
				lost[m.from] = true
			}
		}
		for _, sh := range c.shards[shards:] {
			sh.mu.Lock()
			w := sh.wal
			sh.wal = nil
			sh.mu.Unlock()
			if w == nil {
				continue
			}
			dir := w.Dir()
			w.Close()
			if lost[sh.id] {
				c.cfg.Log.Error("fleet: retired shard's move-ins not durable, keeping state dir", "dir", dir)
				continue
			}
			_ = os.RemoveAll(dir)
		}
		c.shards = c.shards[:shards]
	}
	c.mu.Unlock()

	// Tell the moved sessions why they died, best-effort, off the
	// router lock: a partitioned edge won't get the record, but its
	// connection loop redials regardless.
	for _, r := range redirects {
		_ = r.s.write(transport.KindRedirect,
			Redirect{Shard: r.to, Epoch: epoch, Reason: "re-homed"})
		r.s.conn.Close()
	}
	return moved, nil
}

// reconcileItem is one reconciliation push: a re-deploy of missing
// intent, a re-send of an undecided canary candidate, or (dep nil) a
// withdrawal — of a managed MC whose intent was removed while the
// node was away, or (canary set) of a reported shadow whose canary
// record is decided or gone.
type reconcileItem struct {
	stream, name string
	dep          *deployment
	// canary re-sends the deployment as a shadow candidate (the edge
	// replaces a same-named shadow, so the push is idempotent; the
	// evaluator re-anchors on the bumped epoch), or with dep nil
	// withdraws the named shadow.
	canary  bool
	version uint64
	// epoch is the canary re-push's install counter (see
	// DeployRequest.Epoch): the record's epoch plus one, which the
	// caller commits before pushing.
	epoch uint64
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
	// Undecided canary candidates are re-pushed as shadows: a node
	// that reconnected lost them with its process, and the evaluation
	// window picks back up from the fresh sketch. The bumped epoch
	// tells the evaluator to re-anchor even if the fresh sketch's
	// count catches up with the old one between heartbeats.
	for key, cs := range st.Canary {
		if cs.Outcome != "" {
			continue
		}
		stream, name, _ := strings.Cut(key, "/")
		d := deployment{MC: cs.MC, Threshold: cs.Threshold}
		work = append(work, reconcileItem{
			stream: stream, name: name, dep: &d, canary: true,
			version: cs.Version, epoch: cs.Epoch + 1,
		})
	}
	// Reported shadows with no undecided canary record are withdrawn:
	// a rollback or expiry push that never reached the node (or a
	// record this controller no longer tracks) must not leave a dead
	// candidate scoring every frame forever.
	for stream, reported := range hello.Shadows {
		for _, name := range reported {
			if cs := st.Canary[stream+"/"+name]; cs == nil || cs.Outcome != "" {
				work = append(work, reconcileItem{stream: stream, name: name, canary: true})
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
		switch {
		case w.canary && w.dep != nil:
			_ = s.deployCanary(w.stream, w.dep.MC, w.dep.Threshold, w.version, w.epoch)
		case w.canary:
			_ = s.undeployCanary(w.stream, w.name)
		case w.dep != nil:
			_ = s.deploy(w.stream, w.dep.MC, w.dep.Threshold, gen, w.dep.Version)
		default:
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
	for _, sh := range c.snapshotShards() {
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
			hb, at := s.LastHeartbeat()
			age := time.Duration(-1)
			if !at.IsZero() {
				age = time.Since(at)
			}
			lc := counters[s.Node()]
			infos = append(infos, NodeInfo{
				ID: s.ID(), Node: s.Node(), Streams: s.Streams(),
				Uploads: s.Received(), Heartbeat: hb, HeartbeatAge: age,
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
	for _, sh := range c.snapshotShards() {
		sh.mu.Lock()
		for _, st := range sh.Nodes {
			evicted += st.Evicted
			reconnects += st.Reconnects
		}
		sh.mu.Unlock()
	}
	return evicted, reconnects
}

// Rehomed returns how many node moves the controller's resizes have
// performed in total (a node moved twice counts twice).
func (c *Controller) Rehomed() int {
	total := 0
	for _, sh := range c.snapshotShards() {
		sh.mu.Lock()
		for _, st := range sh.Nodes {
			total += st.Rehomed
		}
		sh.mu.Unlock()
	}
	return total
}

// ShardStats snapshots every shard's load — node and session counts,
// its nodes' ledger totals, redirect counts, heartbeat-gap digests —
// ordered by shard index.
func (c *Controller) ShardStats() []ShardStat {
	shards := c.snapshotShards()
	stats := make([]ShardStat, 0, len(shards))
	for _, sh := range shards {
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
	shards := c.snapshotShards()
	loads := make([][]metrics.NodeLoad, 0, len(shards))
	for _, sh := range shards {
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
// ErrDeferred returned. A deployment the edge itself rejects
// (ErrRejected) is rolled back out of the intent; a transport failure
// keeps it, because the node's state is unknown and reconciliation
// will settle it.
func (c *Controller) Deploy(node, stream string, mc []byte, threshold float32) error {
	info, nameErr := filter.MCInfo(bytes.NewReader(mc))
	name := info.Name

	var prev deployment
	var had bool
	var gen uint64
	var sess *Session
	c.onNode(node, true, func(sh *shard, st *nodeState) {
		if nameErr == nil {
			prev, had = st.Intent[stream][name]
			gen = st.Gen + 1
			sh.commit(&intentRec{
				Node: node, Stream: stream, Name: name,
				MC: mc, Threshold: threshold, Version: info.Version, Gen: gen,
			})
		}
		sess = sh.liveSessionLocked(node)
	})

	if sess == nil {
		if nameErr != nil {
			return fmt.Errorf("fleet: no connected node %q and undecodable MC bytes: %w", node, nameErr)
		}
		return fmt.Errorf("fleet: deploy %s/%s %q: %w", node, stream, name, ErrDeferred)
	}
	err := sess.deploy(stream, mc, threshold, gen, info.Version)
	if err != nil && nameErr == nil && errors.Is(err, ErrRejected) {
		// The node answered and refused: this intent can never apply.
		// Roll back to the previous deployment, or to none. The rollback
		// re-resolves the node record — a resize may have moved it to
		// another shard mid round trip.
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
// it reconnects.
func (c *Controller) Undeploy(node, stream, mcName string) error {
	var gen uint64
	var sess *Session
	c.onNode(node, true, func(sh *shard, st *nodeState) {
		if _, had := st.Intent[stream][mcName]; had {
			sh.commit(&intentRec{
				Node: node, Stream: stream, Name: mcName, Gen: st.Gen + 1, Remove: true,
			})
		}
		gen = st.Gen
		sess = sh.liveSessionLocked(node)
	})
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
func (c *Controller) IntentMCBytes(node, stream, mcName string) ([]byte, bool) {
	var out []byte
	var ok bool
	c.onNode(node, false, func(_ *shard, st *nodeState) {
		dep, found := st.Intent[stream][mcName]
		if found {
			out = append([]byte(nil), dep.MC...)
			ok = true
		}
	})
	return out, ok
}

// IntentDeployment returns the intended MC bytes and decision
// threshold for one node/stream/MC — what internal/retrain warm-starts
// a candidate from.
func (c *Controller) IntentDeployment(node, stream, mcName string) (mc []byte, threshold float32, ok bool) {
	c.onNode(node, false, func(_ *shard, st *nodeState) {
		dep, found := st.Intent[stream][mcName]
		if found {
			mc = append([]byte(nil), dep.MC...)
			threshold = dep.Threshold
			ok = true
		}
	})
	return mc, threshold, ok
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
