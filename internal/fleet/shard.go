package fleet

import (
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/walog"
)

// shard is one slice of the control plane: a self-contained session
// registry, exactly-once upload ledger, deploy-generation intent
// store, and datacenter receiver for the nodes the consistent-hash
// ring places on it. Every per-node guarantee the monolithic
// controller gave — upload dedup by sequence high-water mark, intent
// reconciliation on resume, lifecycle counting — holds within a
// shard, and a node lives on exactly one shard for the life of the
// process (the shard set and ring never change once the controller
// opens), so the guarantees compose to fleet-global ones.
type shard struct {
	id int
	c  *Controller

	mu       sync.Mutex
	sessions map[uint64]*Session
	// shardState is the durable part: the node records, ledgers
	// included. Its logged fields change only through commit (log, then
	// apply); see persist.go.
	shardState
	// wal is the shard's durable state store (nil on an in-memory
	// controller): commit appends every record here before applying
	// it, and snapshots compact it. Guarded by mu.
	wal *walog.Log
	// snapshots counts the snapshots written to wal since the
	// controller opened. Guarded by mu.
	snapshots int
	// fenced is the error of the first failed wal append or sync, nil
	// before one: commit then logs and applies nothing more until the
	// controller reopens. Guarded by mu.
	fenced error
	// failedAt and retrySize pace the retries of a failed compaction:
	// the wal's Pending count when the last one failed, and its Size
	// then plus the bytes that attempt encoded. compactDue waits for
	// SnapshotEvery records after failedAt and for Size to reach
	// retrySize; both are zero once a compaction succeeds. Guarded by
	// mu.
	failedAt  int
	retrySize int64
	// encoded is the buffer commit encodes each record into, reused
	// from one commit to the next, and upload the record acceptUpload
	// commits, reused too: commit and apply copy out what they keep.
	// Guarded by mu.
	encoded []byte
	upload  uploadRec

	// hbGap observes the gap between consecutive heartbeats of each
	// session — the shard's control-latency signal — and hbHandle how
	// long the shard spent handling each one. walAppend observes each
	// commit's wal append, its sync included when WALSync is set.
	hbGap, hbHandle, walAppend *obs.Histogram
}

func newShard(id int, c *Controller) *shard {
	return &shard{
		id:         id,
		c:          c,
		sessions:   make(map[uint64]*Session),
		shardState: newShardState(),
		hbGap:      &obs.Histogram{},
		hbHandle:   &obs.Histogram{},
		walAppend:  &obs.Histogram{},
	}
}

// liveSessionLocked returns the newest session for a node, nil when
// offline. Callers hold sh.mu.
func (sh *shard) liveSessionLocked(node string) *Session {
	var best *Session
	for _, s := range sh.sessions {
		if s.Node() == node && (best == nil || s.ID() > best.ID()) {
			best = s
		}
	}
	return best
}

// serveSession registers and runs one edge session whose hello the
// router validated and routed to this shard, the node's owner.
func (sh *shard) serveSession(conn net.Conn, hello Hello) error {
	cfg := &sh.c.cfg
	liveness := time.Duration(0)
	if cfg.HeartbeatMiss > 0 && hello.HeartbeatEvery > 0 {
		liveness = time.Duration(cfg.HeartbeatMiss) * hello.HeartbeatEvery
	}

	sh.mu.Lock()
	// A node has at most one live session: a returning node (crashed,
	// partitioned, or NATed onto a new connection) replaces its stale
	// session, which the registry would otherwise serve round trips to.
	st := sh.node(hello.Node)
	for id, old := range sh.sessions {
		if old.Node() == hello.Node {
			old.evict()
			delete(sh.sessions, id)
			st.Evicted++
			cfg.Log.Warn("fleet: stale session replaced",
				"node", hello.Node, "shard", sh.id, "session", id, "evicted", st.Evicted)
		}
	}
	if hello.Resume {
		st.Reconnects++
	} else if st.LastSeq != 0 {
		// A fresh (non-resume) hello is a new edge incarnation whose
		// upload sequence space restarts at 1; keeping the previous
		// incarnation's high-water mark would silently drop every
		// upload the new process sends as a "duplicate". The reset must
		// be logged: replaying the old mark over the new incarnation's
		// uploads would drop them all the same way after a restart. A
		// reset that cannot be logged refuses the hello.
		if err := sh.commit(&seqResetRec{Node: hello.Node}); err != nil {
			sh.mu.Unlock()
			cfg.Log.Warn("fleet: fresh hello refused", "node", hello.Node, "shard", sh.id, "err", err)
			return err
		}
	}
	gen := st.Gen
	// Snapshot the reconciliation work in the same critical section
	// that registers the session: intent recorded by a concurrent
	// Deploy (e.g. an OnSession hook) after this point has its own
	// pusher, and double-pushing would end in a duplicate rejection
	// that rolls back valid intent.
	work := reconcileWorkLocked(st, hello)
	s := newSession(sh.c.nextID.Add(1), hello, conn, cfg.Timeout, liveness, sh.hbGap, sh.hbHandle, sh.noteHeartbeat)
	// Hold the session's writer from registration until the Welcome is
	// out: a Deploy or Fetch that finds the session in the registry
	// meanwhile must not put its request ahead of the handshake.
	s.wmu.Lock()
	sh.sessions[s.id] = s
	sh.mu.Unlock()
	cfg.Log.Info("fleet: session open",
		"node", hello.Node, "shard", sh.id, "session", s.id, "resume", hello.Resume,
		"streams", len(hello.Streams), "deploy_gen", hello.DeployGen,
		"reconcile", len(work))
	defer func() {
		// If the handshake failed before s.run could report, wake any
		// caller that already found the session in the registry.
		s.markDone(errors.New("fleet: session handshake failed"))
		sh.mu.Lock()
		delete(sh.sessions, s.id)
		sh.mu.Unlock()
	}()

	if err := s.welcome(Welcome{SessionID: s.id, DeployGen: gen, Shard: sh.id}); err != nil {
		return err
	}
	// Reconcile every session against intent, not just resumes:
	// intent recorded while the node was offline (ErrDeferred) must
	// also reach a node that restarted and reconnects with a fresh
	// hello. For a node with no intent history this is a no-op.
	if hello.DeployGen != gen || len(work) > 0 {
		go runReconcile(s, gen, work)
	}
	if hook := cfg.OnSession; hook != nil {
		go hook(s)
	}
	err := s.run(sh.acceptUpload)
	// Liveness evictions end the session from inside its reader; count
	// them against the node.
	if terminal := s.Err(); errors.Is(terminal, errLiveness) {
		sh.mu.Lock()
		st.Evicted++
		evicted := st.Evicted
		sh.mu.Unlock()
		cfg.Log.Warn("fleet: liveness eviction",
			"node", s.node, "shard", sh.id, "session", s.id, "window", liveness,
			"evicted", evicted)
	} else {
		cfg.Log.Info("fleet: session closed",
			"node", s.node, "shard", sh.id, "session", s.id, "uploads", s.received())
	}
	return err
}

// acceptUpload is the node-level dedup gate. A sequenced upload at or
// below the node's high-water mark is a retransmission of something
// already accounted: dropped but acked, so the edge retires it. An
// upload reaching a session that is already done is dropped WITHOUT
// an ack: nothing accounts it here, so the edge must keep it buffered
// and retransmit on its next session. Fresh uploads are committed:
// logged, then applied to the node's ledger.
func (sh *shard) acceptUpload(s *Session, rec transport.UploadRecord) (accept, ack bool) {
	sh.mu.Lock()
	// An evicted session must not touch the node ledger: its
	// replacement may already have reset the dedup high-water mark,
	// and a stale delivery would re-poison it. Eviction (markDone)
	// happens under sh.mu, so checking here — after acquiring it —
	// leaves no window for a stale reader to slip past.
	select {
	case <-s.done:
		sh.mu.Unlock()
		return false, false
	default:
	}
	st := sh.Nodes[s.node]
	if rec.Seq != 0 && rec.Seq <= st.LastSeq {
		sh.mu.Unlock()
		return false, true
	}
	// Log before ack: an upload whose record did not reach the wal is
	// neither applied nor acked, so the edge keeps it buffered and
	// retransmits — at-least-once delivery plus the durable high-water
	// mark is what keeps the ledger exactly-once across controller
	// crashes.
	sh.upload = uploadRec{Node: s.node, Rec: rec}
	err := sh.commit(&sh.upload)
	sh.mu.Unlock()
	if err != nil {
		return false, false
	}
	if hook := sh.c.cfg.OnUpload; hook != nil {
		hook(s, rec.ToUpload())
	}
	return true, true
}

// loads converts the shard's live sessions into per-stream NodeLoads
// — the heartbeat rollup input. Latency histograms and lifecycle
// counters are node-level, so they ride on each node's first load
// only (SummarizeFleet would double-count them otherwise). Loads are
// not sorted; the rollup is order-independent by construction.
func (sh *shard) loads() []metrics.NodeLoad {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var loads []metrics.NodeLoad
	for _, s := range sh.sessions {
		// Read the latest heartbeat in place, its score table included,
		// under its session's lock, rather than copy it: the loads copy
		// out what they keep.
		s.mu.Lock()
		hb := s.heartbeat
		ns := sh.Nodes[s.Node()]
		for i, si := range s.Streams() {
			st := hb.Streams[si.Name]
			load := metrics.NodeLoad{
				Node: s.Node() + "/" + si.Name, Frames: st.Frames, FPS: si.FPS,
				Uploads: st.Uploads, UploadedBits: st.UploadedBits,
				DemandFetchBits: st.DemandFetchBits,
				ArchivedBits:    st.ArchivedBits, ArchiveBytes: st.ArchiveBytes,
				ArchiveEvictedSegments: st.ArchiveEvictedSegments,
				ArchiveEvictedBytes:    st.ArchiveEvictedBytes,
			}
			// Sketches and drift scores are per-stream (the heartbeat
			// keys them by stream), so unlike the node-level latency
			// histograms they ride every load without double counting.
			for _, e := range hb.scores.streamSketches(si.Name) {
				load.Scores.Merge(e.sketch)
			}
			for _, e := range hb.scores.streamVersions(si.Name) {
				load.MCVersion = max(load.MCVersion, e.version)
			}
			prefix := si.Name + "/"
			for key, ds := range ns.Drift {
				if !strings.HasPrefix(key, prefix) {
					continue
				}
				if ds.Drifted {
					load.Drifted++
				}
				if ds.PSI > load.DriftPSI {
					load.DriftPSI = ds.PSI
				}
				if ds.KS > load.DriftKS {
					load.DriftKS = ds.KS
				}
			}
			if i == 0 {
				load.ExtractLat = hb.Extract
				load.MCPushLat = hb.MCPush
				load.QueueWaitLat = hb.QueueWait
				load.UploadRTTLat = hb.UploadRTT
				load.PendingUploads = hb.PendingUploads
				load.Evicted = ns.Evicted
				load.Reconnects = ns.Reconnects
			}
			loads = append(loads, load)
		}
		s.mu.Unlock()
	}
	return loads
}

// ShardStat is one shard's load snapshot for operators and the
// ff_fleet_shard_* gauges.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Nodes counts node records homed on the shard (durable across
	// sessions); Sessions counts live sessions.
	Nodes    int
	Sessions int
	// Uploads and UploadBits total the ledgers of the nodes the shard
	// owns: every deduplicated upload those nodes delivered, on whichever
	// shard they were before a restart re-sharded them. A re-home moves a
	// node's share with it, so the sum over shards is the fleet's total.
	Uploads    int
	UploadBits int64
	// HeartbeatGap is the histogram of the gap between consecutive
	// heartbeats across the shard's sessions — its control-plane
	// latency signal. HeartbeatHandling is the histogram of the time
	// from reading a heartbeat record to the return of the shard's
	// drift hook: what a heartbeat costs the shard.
	HeartbeatGap      obs.HistSnapshot
	HeartbeatHandling obs.HistSnapshot
	// WALAppend is the histogram of the time each committed record
	// took to append to the shard's wal, its fsync included when
	// WALSync is set — empty on an in-memory controller.
	WALAppend obs.HistSnapshot
	// Snapshots counts the state snapshots the shard wrote since the
	// controller opened (recovery's included), and SnapshotBytes is the
	// newest one's size on disk — zero on an in-memory controller. A
	// shard compacts only once its wal holds as many bytes as that
	// snapshot, so a growing ledger snapshots ever more rarely.
	Snapshots     int
	SnapshotBytes int64
}

// stats snapshots the shard's ShardStat.
func (sh *shard) stats() ShardStat {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStat{
		Shard:             sh.id,
		Nodes:             len(sh.Nodes),
		Sessions:          len(sh.sessions),
		HeartbeatGap:      sh.hbGap.Snapshot(),
		HeartbeatHandling: sh.hbHandle.Snapshot(),
		WALAppend:         sh.walAppend.Snapshot(),
		Snapshots:         sh.snapshots,
	}
	for _, ns := range sh.Nodes {
		uploads, bits := ns.DC.Totals()
		st.Uploads += uploads
		st.UploadBits += bits
	}
	if sh.wal != nil {
		st.SnapshotBytes = sh.wal.SnapshotSize()
	}
	return st
}
