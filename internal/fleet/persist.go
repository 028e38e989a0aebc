package fleet

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/walog"
)

// The shard is a deterministic state machine over typed records. Every
// mutation of a logged field — a node's intent, deploy generation, and
// dedup high-water mark, the node and shard ledgers and their totals, a
// canary's start, install epoch, and verdict, a drift baseline freeze,
// a node arriving from another shard, a retired shard's history folding
// in — is one record below, and shardState.apply is the only code that
// performs it. The live path (shard.commit) logs the record and then
// applies the typed value it already holds; recovery (replayLog) decodes
// each logged record and calls the same apply. Replay equals live by
// construction, not by keeping two copies of every mutation in step.
//
// What heartbeats alone derive is soft state and has no record: a drift
// pair's window boundary, scores, and drifted flag (and the reset of a
// pair whose model version changed — replay restores the last frozen
// baseline and the first heartbeat re-detects the change), an undecided
// canary's window anchors and progress, a node's evicted/reconnects
// counters, and the existence of a node record with nothing logged in
// it. Snapshots carry soft state as a convenience; a WAL-only recovery
// starts it from zero and the next heartbeats rebuild it.
//
// The kind numbers are on-disk format — append only, never renumber.
const (
	// wrecIntent records one intent change: a deploy (MC set), an
	// undeploy or rollback (Remove), with the node's post-op generation.
	wrecIntent uint8 = 1
	// wrecUpload records one deduplicated sequenced upload — the full
	// record, not just the high-water mark, so recovery rebuilds the
	// ledger record for record (a lost acked upload is unrecoverable:
	// the edge retired it from its resend buffer on the ack).
	wrecUpload uint8 = 2
	// wrecSeqReset records a fresh (non-resume) hello zeroing the
	// node's dedup high-water mark for a new edge incarnation.
	wrecSeqReset uint8 = 3
	// wrecCanaryStart opens a canary record for a (node, stream, MC).
	wrecCanaryStart uint8 = 4
	// wrecCanaryEpoch records a reconciliation re-push bumping the
	// shadow slot's install counter.
	wrecCanaryEpoch uint8 = 5
	// wrecCanaryVerdict records a verdict (promoted / rolled_back /
	// expired) or the removal of a canary the edge refused.
	wrecCanaryVerdict uint8 = 6
	// wrecDriftBaseline records a drift baseline freeze for a
	// (node, stream/mc) pair.
	wrecDriftBaseline uint8 = 7
	// wrecMoveIn records a node state arriving on this shard — a
	// Resize re-home, or recovery placing a node on a different shard
	// than the log it was recovered from. The payload is the full node
	// state; apply adopts it wholesale, and the Rehomed counter acts
	// as the incarnation number that picks the winner when several logs
	// hold copies of the same node.
	wrecMoveIn uint8 = 8
	// wrecFold records a retired shard's aggregate history (ledger
	// totals, datacenter) folding into this shard, keyed by the retired
	// log's directory identity so replay never counts a fold twice even
	// if the retired directory survives a crash.
	wrecFold uint8 = 9
	// Kind 10 was wrecLegacyUpload (an upload over the retired one-way
	// protocol). Reserved: never reuse the number. A log that still
	// holds one fails replay with the unknown-kind error.
)

// record is one typed WAL record: the argument of shardState.apply.
type record interface{ kind() uint8 }

func (*intentRec) kind() uint8        { return wrecIntent }
func (*uploadRec) kind() uint8        { return wrecUpload }
func (*seqResetRec) kind() uint8      { return wrecSeqReset }
func (*canaryStartRec) kind() uint8   { return wrecCanaryStart }
func (*canaryEpochRec) kind() uint8   { return wrecCanaryEpoch }
func (*canaryVerdictRec) kind() uint8 { return wrecCanaryVerdict }
func (*driftBaselineRec) kind() uint8 { return wrecDriftBaseline }
func (*moveInRec) kind() uint8        { return wrecMoveIn }
func (*foldRec) kind() uint8          { return wrecFold }

// newRecord maps an on-disk kind to an empty record to decode into.
var newRecord = [...]func() record{
	wrecIntent:        func() record { return new(intentRec) },
	wrecUpload:        func() record { return new(uploadRec) },
	wrecSeqReset:      func() record { return new(seqResetRec) },
	wrecCanaryStart:   func() record { return new(canaryStartRec) },
	wrecCanaryEpoch:   func() record { return new(canaryEpochRec) },
	wrecCanaryVerdict: func() record { return new(canaryVerdictRec) },
	wrecDriftBaseline: func() record { return new(driftBaselineRec) },
	wrecMoveIn:        func() record { return new(moveInRec) },
	wrecFold:          func() record { return new(foldRec) },
}

// decodeRecord turns one logged (kind, payload) back into its typed
// record.
func decodeRecord(kind uint8, payload []byte) (record, error) {
	if int(kind) >= len(newRecord) || newRecord[kind] == nil {
		return nil, fmt.Errorf("unknown wal record kind %d", kind)
	}
	rec := newRecord[kind]()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// canaryRemoved is the wrecCanaryVerdict outcome for a canary record
// dropped entirely (the edge rejected the shadow deploy) — apply
// deletes the record instead of marking it decided.
const canaryRemoved = "removed"

// intentRec is the wrecIntent payload.
type intentRec struct {
	Node, Stream, Name string
	MC                 []byte
	Threshold          float32
	Version            uint64
	// Gen is the node's deploy generation after the op — absolute, so
	// replay is idempotent and recovered generations are exactly the
	// acknowledged ones (never zero after any intent op).
	Gen    uint64
	Remove bool
}

// uploadRec is the wrecUpload payload.
type uploadRec struct {
	Node string
	Rec  transport.UploadRecord
}

// seqResetRec is the wrecSeqReset payload.
type seqResetRec struct {
	Node string
}

// canaryStartRec is the wrecCanaryStart payload.
type canaryStartRec struct {
	Node, Stream, Name string
	MC                 []byte
	Threshold          float32
	Version            uint64
	IncumbentVersion   uint64
}

// canaryEpochRec is the wrecCanaryEpoch payload.
type canaryEpochRec struct {
	Node, Stream, Name string
	Epoch              uint64
}

// canaryVerdictRec is the wrecCanaryVerdict payload: the verdict and
// the evaluation window it was reached on, frozen — everything
// CanaryReport prints for a decided canary, so the report reads the
// same before a crash and after a WAL-only recovery. (Logs written
// before the window fields existed decode them as zero.)
type canaryVerdictRec struct {
	Node, Stream, Name string
	Version            uint64
	Outcome, Reason    string
	// Observations is the shadow window's score count and Heartbeats
	// the expiry clock at verdict time; AgreePSI, Spread, and PassDelta
	// are the decision inputs.
	Observations                uint64
	Heartbeats                  int
	AgreePSI, Spread, PassDelta float64
}

// driftBaselineRec is the wrecDriftBaseline payload.
type driftBaselineRec struct {
	Node, Key string
	Baseline  obs.SketchSnapshot
	Version   uint64
}

// moveInRec is the wrecMoveIn payload.
type moveInRec struct {
	Node nodeSnap
}

// foldRec is the wrecFold payload. FromID is zero only on an in-memory
// controller, whose shards have no store and so no identity.
type foldRec struct {
	FromID     uint64
	Uploads    int
	UploadBits int64
	DC         []upSnap
}

// shardState is the durable part of a shard: what a snapshot holds and
// what the log's records rebuild. The live shard embeds one and
// recovery builds one per log directory, both through apply.
type shardState struct {
	nodes map[string]*nodeState
	dc    *core.Datacenter // aggregate across the shard's nodes, keyed "node/stream/mc"
	// uploads and uploadBits are the shard ledger totals: every
	// deduplicated upload accepted, across all of the shard's nodes.
	uploads    int
	uploadBits int64
	// folded lists retired shard stores whose aggregate history this
	// shard has absorbed (fold records), by store identity — carried in
	// snapshots so a crash between a fold and the retired directory's
	// deletion cannot double-count it. Only shard 0 folds.
	folded []uint64
}

func newShardState() shardState {
	return shardState{nodes: make(map[string]*nodeState), dc: core.NewDatacenter()}
}

// node returns (creating if needed) the record for a node name. Live
// callers hold the shard mutex and own the node under the current
// placement epoch.
func (s *shardState) node(name string) *nodeState {
	st := s.nodes[name]
	if st == nil {
		st = &nodeState{
			intent: make(map[string]map[string]deployment),
			dc:     core.NewDatacenter(),
		}
		s.nodes[name] = st
	}
	return st
}

// apply performs one record's mutation. It is the only writer of the
// logged fields (see the vocabulary above) and it never fails. Every
// kind is also idempotent — absolute generations, max-merged epochs,
// overwritten baselines, identity-keyed folds, seq-deduped uploads —
// so a record reaching a state that already reflects it changes
// nothing.
func (s *shardState) apply(rec record) {
	switch r := rec.(type) {
	case *intentRec:
		st := s.node(r.Node)
		if r.Remove {
			delete(st.intent[r.Stream], r.Name)
		} else {
			if st.intent[r.Stream] == nil {
				st.intent[r.Stream] = make(map[string]deployment)
			}
			st.intent[r.Stream][r.Name] = deployment{mc: r.MC, threshold: r.Threshold, version: r.Version}
		}
		if r.Gen > st.gen {
			st.gen = r.Gen
		}
	case *uploadRec:
		st := s.node(r.Node)
		up := r.Rec.ToUpload()
		if r.Rec.Seq != 0 {
			if r.Rec.Seq <= st.lastSeq {
				return // a retransmission, or a record the snapshot already counted
			}
			st.lastSeq = r.Rec.Seq
		}
		st.dc.Receive(up)
		// The aggregate view prefixes the node name so two nodes running
		// the same application don't collide; the per-node and per-session
		// datacenters keep the edge's own naming.
		up.MCName = r.Node + "/" + up.MCName
		s.dc.Receive(up)
		s.uploads++
		s.uploadBits += up.Bits
	case *seqResetRec:
		s.node(r.Node).lastSeq = 0
	case *canaryStartRec:
		st := s.node(r.Node)
		if st.canary == nil {
			st.canary = make(map[string]*canaryState)
		}
		st.canary[r.Stream+"/"+r.Name] = &canaryState{
			mc: r.MC, threshold: r.Threshold, version: r.Version,
			incumbentVersion: r.IncumbentVersion, epoch: 1,
		}
	case *canaryEpochRec:
		if cs := s.node(r.Node).canary[r.Stream+"/"+r.Name]; cs != nil && r.Epoch > cs.epoch {
			cs.epoch = r.Epoch
		}
	case *canaryVerdictRec:
		st := s.node(r.Node)
		key := r.Stream + "/" + r.Name
		cs := st.canary[key]
		if cs == nil || cs.version != r.Version {
			return // verdict for a replaced record: ignore
		}
		if r.Outcome == canaryRemoved {
			delete(st.canary, key)
			return
		}
		cs.outcome, cs.reason = r.Outcome, r.Reason
		cs.observations, cs.heartbeats = r.Observations, r.Heartbeats
		cs.agreePSI, cs.spread, cs.passDelta = r.AgreePSI, r.Spread, r.PassDelta
	case *driftBaselineRec:
		st := s.node(r.Node)
		if st.drift == nil {
			st.drift = make(map[string]*driftState)
		}
		// A freeze starts the pair over: the window boundary and latest
		// snapshot sit at the baseline, nothing is scored yet.
		st.drift[r.Key] = &driftState{
			baseline: r.Baseline, baselineSet: true,
			prev: r.Baseline, last: r.Baseline, version: r.Version,
		}
	case *moveInRec:
		// Wholesale replacement: the moved-in state is the node's whole
		// truth at move time; anything this shard accumulated before is a
		// stale earlier incarnation (A→B→A re-homes land here).
		s.nodes[r.Node.Name] = nodeFromSnap(r.Node)
	case *foldRec:
		// Folds are keyed by the retired store's identity: a record whose
		// source this shard already absorbed (the snapshot preceding it
		// was taken after the fold applied) must not double-count. With
		// no store there is no identity, and nothing to replay the fold.
		if r.FromID != 0 {
			if slices.Contains(s.folded, r.FromID) {
				return
			}
			s.folded = append(s.folded, r.FromID)
		}
		s.uploads += r.Uploads
		s.uploadBits += r.UploadBits
		for _, u := range r.DC {
			s.dc.Receive(u.toUpload())
		}
	default:
		panic(fmt.Sprintf("fleet: apply: no mutation defined for record %T", rec))
	}
}

// upSnap is core.Upload's durable form. Controller-side uploads carry
// no pixel data or uplink delay (both are edge-local), so only the
// accounting fields persist.
type upSnap struct {
	MCName  string
	EventID uint64
	Start   int
	End     int
	Bits    int64
	Final   bool
}

func toUpSnap(u core.Upload) upSnap {
	return upSnap{MCName: u.MCName, EventID: u.EventID, Start: u.Start, End: u.End, Bits: u.Bits, Final: u.Final}
}

func (u upSnap) toUpload() core.Upload {
	return core.Upload{MCName: u.MCName, EventID: u.EventID, Start: u.Start, End: u.End, Bits: u.Bits, Final: u.Final}
}

func dcSnap(dc *core.Datacenter) []upSnap {
	var out []upSnap
	apps := dc.KnownApplications()
	sort.Strings(apps)
	for _, app := range apps {
		for _, u := range dc.Uploads(app) {
			out = append(out, toUpSnap(u))
		}
	}
	return out
}

func dcFromSnap(ups []upSnap) *core.Datacenter {
	dc := core.NewDatacenter()
	for _, u := range ups {
		dc.Receive(u.toUpload())
	}
	return dc
}

// depSnap is one intent entry's durable form.
type depSnap struct {
	Stream, Name string
	MC           []byte
	Threshold    float32
	Version      uint64
}

// driftSnap is driftState's durable form, keyed "stream/mc".
type driftSnap struct {
	Key         string
	Baseline    obs.SketchSnapshot
	BaselineSet bool
	Prev, Last  obs.SketchSnapshot
	Version     uint64
	PSI, KS     float64
	Windows     int
	Drifted     bool
}

// canarySnap is canaryState's durable form, keyed "stream/mc".
type canarySnap struct {
	Key                         string
	MC                          []byte
	Threshold                   float32
	Version, IncumbentVersion   uint64
	Epoch, SeenEpoch            uint64
	BaseLive, BaseShadow        obs.SketchSnapshot
	LastLive, LastShadow        obs.SketchSnapshot
	Heartbeats                  int
	AgreePSI, Spread, PassDelta float64
	Outcome, Reason             string
	// Count is canaryState.observations, the shadow window's score count.
	// (The short name keeps a snapshot's gob type header no larger than
	// it was before the field existed.)
	Count uint64
}

// nodeSnap is nodeState's durable form — what snapshots and move-in
// records carry.
type nodeSnap struct {
	Name         string
	Gen, LastSeq uint64
	Intent       []depSnap
	Uploads      []upSnap
	Evicted      int
	Reconnects   int
	// Rehomed doubles as the node's incarnation number: every move
	// between logs (a Resize re-home, or recovery placing the node on a
	// different shard than its source log) bumps it, so when several
	// logs hold copies of the same node, the highest Rehomed is the
	// newest and wins.
	Rehomed int
	Drift   []driftSnap
	Canary  []canarySnap
}

func toNodeSnap(name string, st *nodeState) nodeSnap {
	ns := nodeSnap{
		Name: name, Gen: st.gen, LastSeq: st.lastSeq,
		Evicted: st.evicted, Reconnects: st.reconnects, Rehomed: st.rehomed,
		Uploads: dcSnap(st.dc),
	}
	streams := make([]string, 0, len(st.intent))
	for stream := range st.intent {
		streams = append(streams, stream)
	}
	sort.Strings(streams)
	for _, stream := range streams {
		mcs := st.intent[stream]
		names := make([]string, 0, len(mcs))
		for n := range mcs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			dep := mcs[n]
			ns.Intent = append(ns.Intent, depSnap{Stream: stream, Name: n, MC: dep.mc, Threshold: dep.threshold, Version: dep.version})
		}
	}
	keys := make([]string, 0, len(st.drift))
	for k := range st.drift {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := st.drift[k]
		ns.Drift = append(ns.Drift, driftSnap{
			Key: k, Baseline: ds.baseline, BaselineSet: ds.baselineSet,
			Prev: ds.prev, Last: ds.last, Version: ds.version,
			PSI: ds.psi, KS: ds.ks, Windows: ds.windows, Drifted: ds.drifted,
		})
	}
	keys = keys[:0]
	for k := range st.canary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := st.canary[k]
		ns.Canary = append(ns.Canary, canarySnap{
			Key: k, MC: cs.mc, Threshold: cs.threshold,
			Version: cs.version, IncumbentVersion: cs.incumbentVersion,
			Epoch: cs.epoch, SeenEpoch: cs.seenEpoch,
			BaseLive: cs.baseLive, BaseShadow: cs.baseShadow,
			LastLive: cs.lastLive, LastShadow: cs.lastShadow,
			Heartbeats: cs.heartbeats,
			AgreePSI:   cs.agreePSI, Spread: cs.spread, PassDelta: cs.passDelta,
			Outcome: cs.outcome, Reason: cs.reason,
			Count: cs.observations,
		})
	}
	return ns
}

func nodeFromSnap(ns nodeSnap) *nodeState {
	st := &nodeState{
		intent:  make(map[string]map[string]deployment),
		gen:     ns.Gen,
		lastSeq: ns.LastSeq,
		dc:      dcFromSnap(ns.Uploads),
		evicted: ns.Evicted, reconnects: ns.Reconnects, rehomed: ns.Rehomed,
	}
	for _, d := range ns.Intent {
		if st.intent[d.Stream] == nil {
			st.intent[d.Stream] = make(map[string]deployment)
		}
		st.intent[d.Stream][d.Name] = deployment{mc: d.MC, threshold: d.Threshold, version: d.Version}
	}
	for _, d := range ns.Drift {
		if st.drift == nil {
			st.drift = make(map[string]*driftState)
		}
		st.drift[d.Key] = &driftState{
			baseline: d.Baseline, baselineSet: d.BaselineSet,
			prev: d.Prev, last: d.Last, version: d.Version,
			psi: d.PSI, ks: d.KS, windows: d.Windows, drifted: d.Drifted,
		}
	}
	for _, cs := range ns.Canary {
		if st.canary == nil {
			st.canary = make(map[string]*canaryState)
		}
		st.canary[cs.Key] = &canaryState{
			mc: cs.MC, threshold: cs.Threshold,
			version: cs.Version, incumbentVersion: cs.IncumbentVersion,
			epoch: cs.Epoch, seenEpoch: cs.SeenEpoch,
			baseLive: cs.BaseLive, baseShadow: cs.BaseShadow,
			lastLive: cs.LastLive, lastShadow: cs.LastShadow,
			heartbeats: cs.Heartbeats,
			agreePSI:   cs.AgreePSI, spread: cs.Spread, passDelta: cs.PassDelta,
			outcome: cs.Outcome, reason: cs.Reason,
			observations: cs.Count,
		}
	}
	return st
}

// shardSnap is shardState's durable form — one shard's snapshot
// payload: the aggregate history plus every node record, compacting
// the wal.
type shardSnap struct {
	Uploads    int
	UploadBits int64
	DC         []upSnap
	Nodes      []nodeSnap
	// Folded lists the directory identities of retired shard logs whose
	// aggregates this shard has absorbed: replay skips (and deletes) a
	// directory in this list, so a crash between a fold and the retired
	// directory's removal cannot double-count its history.
	Folded []uint64
}

func (s *shardState) toSnap() shardSnap {
	snap := shardSnap{
		Uploads: s.uploads, UploadBits: s.uploadBits,
		DC:     dcSnap(s.dc),
		Folded: slices.Clone(s.folded),
	}
	for _, name := range slices.Sorted(maps.Keys(s.nodes)) {
		snap.Nodes = append(snap.Nodes, toNodeSnap(name, s.nodes[name]))
	}
	return snap
}

func stateFromSnap(snap shardSnap) shardState {
	s := shardState{
		nodes:   make(map[string]*nodeState, len(snap.Nodes)),
		dc:      dcFromSnap(snap.DC),
		uploads: snap.Uploads, uploadBits: snap.UploadBits,
		folded: snap.Folded,
	}
	for _, ns := range snap.Nodes {
		s.nodes[ns.Name] = nodeFromSnap(ns)
	}
	return s
}

func encodeRec(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// commit is the live half of the state machine: compact if due (once
// SnapshotEvery records have accumulated since the last snapshot), log
// the record, apply it. Callers hold sh.mu. It reports whether the
// record reached the log (always true without a state dir). An append
// failure is logged and the record still applies — durability is
// best-effort for every kind but an upload, which is neither applied
// nor, by acceptUpload, acked: the edge keeps it buffered and
// retransmits, so an acked upload is always on disk.
//
// Compaction runs BEFORE the append, never after: at entry every
// logged record has been applied, so a snapshot taken here captures
// exactly the records it compacts away, and the new record lands in
// the fresh wal to replay on top of it. Compacting after the append
// would snapshot state that lacks the just-logged record and then
// delete the wal holding it.
func (sh *shard) commit(rec record) bool {
	logged := true
	if sh.wal != nil {
		if every := sh.c.cfg.SnapshotEvery; every >= 0 && sh.wal.Pending() >= every {
			if err := sh.snapshotLocked(); err != nil {
				sh.c.cfg.Log.Error("fleet: wal snapshot failed", "shard", sh.id, "err", err)
			}
		}
		payload, err := encodeRec(rec)
		if err == nil {
			err = sh.wal.Append(rec.kind(), payload)
		}
		if err == nil && sh.c.cfg.WALSync {
			err = sh.wal.Sync()
		}
		if err != nil {
			sh.c.cfg.Log.Error("fleet: wal append failed",
				"shard", sh.id, "kind", rec.kind(), "err", err)
			logged = false
		}
	}
	if !logged && rec.kind() == wrecUpload {
		return false
	}
	sh.apply(rec)
	return logged
}

// snapshotLocked writes the shard's full state as a snapshot,
// compacting the wal. Callers hold sh.mu and a shard with a wal.
func (sh *shard) snapshotLocked() error {
	payload, err := encodeRec(sh.toSnap())
	if err != nil {
		return err
	}
	return sh.wal.WriteSnapshot(payload)
}

// replayLog rebuilds one log directory's shard state — its snapshot,
// then every wal record through apply — and counts the records.
func replayLog(l *walog.Log) (shardState, int, error) {
	s := newShardState()
	if snap := l.Snapshot(); snap != nil {
		var ss shardSnap
		if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&ss); err != nil {
			return s, 0, fmt.Errorf("snapshot: %w", err)
		}
		s = stateFromSnap(ss)
	}
	records := l.Records()
	for i, r := range records {
		rec, err := decodeRecord(r.Kind, r.Payload)
		if err != nil {
			return s, i, fmt.Errorf("record %d (kind %d): %w", i, r.Kind, err)
		}
		s.apply(rec)
	}
	return s, len(records), nil
}

// RecoveryStats summarizes a controller's state recovery from its
// StateDir: what was replayed, what it cost, and what was repaired.
type RecoveryStats struct {
	// Dirs is the number of shard log directories found; FoldedDirs
	// how many of them were retired (out of range for the configured
	// shard count, or already folded) and absorbed into shard 0.
	Dirs       int
	FoldedDirs int
	// Nodes is the number of node records recovered (after resolving
	// duplicates across logs by incarnation).
	Nodes int
	// RecordsReplayed counts wal records applied across all logs
	// (snapshot contents not included).
	RecordsReplayed int
	// SnapshotBytes totals the snapshot files loaded; TornBytes totals
	// the torn wal tails truncated on open.
	SnapshotBytes int64
	TornBytes     int64
	// Replay is the wall-clock cost of the whole recovery.
	Replay time.Duration
}

// shardDirName names shard i's log directory under StateDir.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// recoverState replays every shard log directory under cfg.StateDir
// into the controller's shards, creating directories for shards that
// lack one. Called once from OpenController before the controller
// serves, so no locks are needed; the controller's ring and shard
// slice are already built for cfg.Shards.
//
// Ordering contract with Resize re-homing: node records recovered from
// a log whose directory index no longer matches the current ring are
// re-homed at recovery — the winning copy's incarnation (Rehomed) is
// bumped and a move-in record is committed and synced to the new
// owner's wal before the stale copy is dropped from memory, so a crash
// at any point leaves the newest incarnation durable exactly once.
// Retired directories (index beyond the configured shard count) have
// their aggregate history folded into shard 0 via a fold record keyed
// by directory identity, then are deleted; the identity list in shard
// 0's state makes the fold idempotent if the deletion is lost.
func (c *Controller) recoverState() (*RecoveryStats, error) {
	start := time.Now()
	stats := &RecoveryStats{}
	root := c.cfg.StateDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	idxs, paths, err := walog.ListDirs(root, "shard-")
	if err != nil {
		return nil, err
	}

	type recovered struct {
		idx     int
		path    string
		log     *walog.Log
		state   shardState
		records int
	}
	var dirs []recovered
	for i, path := range paths {
		l, err := walog.Open(path)
		if err != nil {
			return nil, fmt.Errorf("fleet: open shard log %s: %w", path, err)
		}
		state, records, err := replayLog(l)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("fleet: replay %s: %w", path, err)
		}
		dirs = append(dirs, recovered{idx: idxs[i], path: path, log: l, state: state, records: records})
		stats.SnapshotBytes += l.SnapshotSize()
		stats.TornBytes += l.TornBytes()
	}
	stats.Dirs = len(dirs)

	// Union of folded directory identities: a directory in the set has
	// already been absorbed — skip its contents, delete it.
	folded := make(map[uint64]bool)
	for _, d := range dirs {
		for _, id := range d.state.folded {
			folded[id] = true
		}
	}
	kept := dirs[:0]
	for _, d := range dirs {
		if folded[d.log.ID()] {
			d.log.Close()
			_ = os.RemoveAll(d.path)
			stats.FoldedDirs++
			continue
		}
		kept = append(kept, d)
		stats.RecordsReplayed += d.records
	}
	dirs = kept

	// Attach logs and state: an in-range directory's replayed state IS
	// its shard's state; out-of-range ones (a previous run had more
	// shards) retire below.
	var retired []recovered
	for _, d := range dirs {
		if d.idx < len(c.shards) {
			c.shards[d.idx].wal, c.shards[d.idx].shardState = d.log, d.state
			continue
		}
		retired = append(retired, d)
	}
	// Shards without a directory (first boot, or the count grew).
	for i, sh := range c.shards {
		if sh.wal != nil {
			continue
		}
		l, err := walog.Open(filepath.Join(root, shardDirName(i)))
		if err != nil {
			return nil, fmt.Errorf("fleet: create shard log %d: %w", i, err)
		}
		sh.wal = l
	}
	// Retired directories fold their aggregates into shard 0, durably
	// before deletion. A directory whose fold did not reach the log
	// stays in place — it is the only durable copy of its history, and
	// the next recovery folds it.
	shard0 := c.shards[0]
	var absorbed []recovered
	for _, d := range retired {
		fold := &foldRec{
			FromID:  d.log.ID(),
			Uploads: d.state.uploads, UploadBits: d.state.uploadBits,
			DC: dcSnap(d.state.dc),
		}
		if !shard0.commit(fold) || shard0.wal.Sync() != nil {
			c.cfg.Log.Error("fleet: recovery fold not durable, keeping state dir", "dir", d.path)
			d.log.Close()
			continue
		}
		absorbed = append(absorbed, d)
		stats.FoldedDirs++
	}

	// Resolve node winners across logs by incarnation (Rehomed): every
	// move between logs bumps it, so the highest copy is the newest.
	// Ties break toward higher generation, then lower directory index —
	// deterministic, and unreachable when move ordering held. Retired
	// directories are considered too: their nodes moved out before
	// retirement (Resize empties a shard before folding it), so copies
	// there are stale except in the crash window where the fold record
	// committed and the move-in lost the race.
	type winner struct {
		st     *nodeState
		srcIdx int
	}
	winners := make(map[string]winner)
	for _, d := range dirs {
		for name, st := range d.state.nodes {
			w, ok := winners[name]
			if !ok || cmp.Or(
				cmp.Compare(st.rehomed, w.st.rehomed),
				cmp.Compare(st.gen, w.st.gen),
				cmp.Compare(w.srcIdx, d.idx)) > 0 {
				winners[name] = winner{st: st, srcIdx: d.idx}
			}
		}
	}

	// Place winners under the current ring. A node landing on a shard
	// other than its source log is a re-home: a move-in at the next
	// incarnation, durable on the new owner before anything else, so no
	// crash can leave two logs claiming the same incarnation. Then every
	// shard drops what it does not own — losing copies and moved-out
	// winners alike (the owner's own copy is the winner by now: either
	// it won from the shard's own log, or the move-in replaced it).
	for _, name := range slices.Sorted(maps.Keys(winners)) {
		w := winners[name]
		target := c.ring.owner(name)
		if w.srcIdx == target {
			continue
		}
		snap := toNodeSnap(name, w.st)
		snap.Rehomed++
		sh := c.shards[target]
		if !sh.commit(&moveInRec{Node: snap}) {
			return nil, fmt.Errorf("fleet: recovery move-in %q to shard %d: wal append failed", name, target)
		}
		if err := sh.wal.Sync(); err != nil {
			return nil, fmt.Errorf("fleet: recovery move-in %q to shard %d: %w", name, target, err)
		}
	}
	for i, sh := range c.shards {
		for name := range sh.nodes {
			if c.ring.owner(name) != i {
				delete(sh.nodes, name)
			}
		}
	}
	stats.Nodes = len(winners)

	// Compact: with move-ins and folds durable, snapshot order across
	// shards no longer matters. Then retire the absorbed directories.
	for _, sh := range c.shards {
		if err := sh.snapshotLocked(); err != nil {
			c.cfg.Log.Error("fleet: recovery snapshot failed", "shard", sh.id, "err", err)
		}
	}
	for _, d := range absorbed {
		d.log.Close()
		_ = os.RemoveAll(d.path)
	}

	stats.Replay = time.Since(start)
	c.recovery = stats
	return stats, nil
}
