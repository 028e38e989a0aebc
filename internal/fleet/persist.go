package fleet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/walog"
)

// The shard is a deterministic state machine over typed records. Every
// mutation of a logged field — a node's intent, deploy generation,
// dedup high-water mark and upload ledger, a canary's start, install
// epoch, and verdict, a drift baseline freeze, a node arriving from
// another shard — is one record below, and shardState.apply is the
// only code that performs it. The live path (shard.commit) logs the
// record and then applies the typed value it already holds; recovery
// (replayLog) decodes each logged record and calls the same apply.
// Replay equals live by construction, not by keeping two copies of
// every mutation in step.
//
// What heartbeats alone derive is soft state and has no record: a drift
// pair's window boundary, scores, and drifted flag (and the reset of a
// pair whose model version changed — replay restores the last frozen
// baseline and the first heartbeat re-detects the change), an undecided
// canary's window anchors and progress, a node's Evicted/Reconnects
// counters, and the existence of a node record with nothing logged in
// it. A snapshot is shardState itself, gob-encoded, so soft state rides
// along in it; a WAL-only recovery starts soft state from zero and the
// next heartbeats rebuild it.
//
// The kind numbers are on-disk format — append only, never renumber.
const (
	// wrecIntent records one intent change: a deploy (MC set), an
	// undeploy or rollback (Remove), with the node's post-op generation.
	wrecIntent uint8 = 1
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
	// than the log it was recovered from. The payload is the nodeState
	// itself; apply adopts it wholesale, and the Rehomed counter acts
	// as the incarnation number that picks the winner when several logs
	// hold copies of the same node.
	wrecMoveIn uint8 = 11
	// wrecUpload records one deduplicated sequenced upload — the full
	// record, not just the high-water mark, so recovery rebuilds the
	// ledger record for record (a lost acked upload is unrecoverable:
	// the edge retired it from its resend buffer on the ack). It is the
	// one kind not logged as gob: its payload is the node name, length
	// prefixed, then the upload in transport.UploadRecord's binary
	// layout (see uploadRec).
	wrecUpload uint8 = 13
	// Kind 2 was the gob-encoded upload record, kinds 8 and 9 the
	// move-in and fold records of the format that mirrored the state in
	// separate snapshot structs, kind 10 an upload over the retired
	// one-way protocol, and kind 12 a retired shard's aggregate ledger
	// folding into shard 0. Reserved: never reuse the numbers. A log that
	// still holds one fails replay with the unknown-kind error instead
	// of being half-decoded.
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
}

// decodeRecord turns one logged (kind, payload) back into its typed
// record. A record's payload is the one a wire record of the same value
// would carry (transport.AppendPayload): the binary layout for an
// upload, gob for every other kind.
func decodeRecord(kind uint8, payload []byte) (record, error) {
	if int(kind) >= len(newRecord) || newRecord[kind] == nil {
		return nil, fmt.Errorf("unknown wal record kind %d", kind)
	}
	rec := newRecord[kind]()
	if err := transport.DecodeRecord(payload, rec); err != nil {
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

// uploadRec is the wrecUpload payload, logged as
//
//	uvarint len(Node) | Node | Rec in transport.UploadRecord's layout
type uploadRec struct {
	Node string
	Rec  transport.UploadRecord
}

func (r *uploadRec) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(r.Node)))
	b = append(b, r.Node...)
	return r.Rec.AppendBinary(b)
}

func (r *uploadRec) UnmarshalBinary(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return errors.New("upload record: truncated node name")
	}
	var rec transport.UploadRecord
	if err := rec.UnmarshalBinary(data[k+int(n):]); err != nil {
		return err
	}
	r.Node, r.Rec = string(data[k:k+int(n)]), rec
	return nil
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
	Name string
	Node *nodeState
}

// shardState is the durable part of a shard: what the log's records
// rebuild, and — gob-encoded as it stands — what a snapshot holds. The
// live shard embeds one and recovery builds one per log directory, both
// through apply. Every field of it and of the types it holds is
// exported, because gob encodes only exported fields.
//
// Each upload lives in exactly one place: the ledger of the node that
// sent it (nodeState.DC), which moves between shards with the rest of
// the node record. Fleet-wide views are merged from those ledgers.
type shardState struct {
	Nodes map[string]*nodeState
}

func newShardState() shardState {
	return shardState{Nodes: make(map[string]*nodeState)}
}

// node returns (creating if needed) the record for a node name. Live
// callers hold the shard mutex and own the node under the current
// placement epoch.
func (s *shardState) node(name string) *nodeState {
	st := s.Nodes[name]
	if st == nil {
		st = &nodeState{DC: core.NewDatacenter()}
		s.Nodes[name] = st
	}
	return st
}

// apply performs one record's mutation. It is the only writer of the
// logged fields (see the vocabulary above) and it never fails. Every
// kind is also idempotent — absolute generations, max-merged epochs,
// overwritten baselines, wholesale move-ins, seq-deduped uploads —
// so a record reaching a state that already reflects it changes
// nothing.
func (s *shardState) apply(rec record) {
	switch r := rec.(type) {
	case *intentRec:
		st := s.node(r.Node)
		if r.Remove {
			delete(st.Intent[r.Stream], r.Name)
		} else {
			// Maps are made on first write, here as in the drift and
			// canary cases: a node record can be decoded with any of them
			// nil (gob keeps a nil map nil).
			if st.Intent == nil {
				st.Intent = make(map[string]map[string]deployment)
			}
			if st.Intent[r.Stream] == nil {
				st.Intent[r.Stream] = make(map[string]deployment)
			}
			st.Intent[r.Stream][r.Name] = deployment{MC: r.MC, Threshold: r.Threshold, Version: r.Version}
		}
		if r.Gen > st.Gen {
			st.Gen = r.Gen
		}
	case *uploadRec:
		st := s.node(r.Node)
		if r.Rec.Seq != 0 {
			if r.Rec.Seq <= st.LastSeq {
				return // a retransmission, or a record the snapshot already counted
			}
			st.LastSeq = r.Rec.Seq
		}
		st.DC.Receive(r.Rec.ToUpload())
	case *seqResetRec:
		s.node(r.Node).LastSeq = 0
	case *canaryStartRec:
		st := s.node(r.Node)
		if st.Canary == nil {
			st.Canary = make(map[string]*canaryState)
		}
		st.Canary[r.Stream+"/"+r.Name] = &canaryState{
			MC: r.MC, Threshold: r.Threshold, Version: r.Version,
			IncumbentVersion: r.IncumbentVersion, Epoch: 1,
		}
	case *canaryEpochRec:
		if cs := s.node(r.Node).Canary[r.Stream+"/"+r.Name]; cs != nil && r.Epoch > cs.Epoch {
			cs.Epoch = r.Epoch
		}
	case *canaryVerdictRec:
		st := s.node(r.Node)
		key := r.Stream + "/" + r.Name
		cs := st.Canary[key]
		if cs == nil || cs.Version != r.Version {
			return // verdict for a replaced record: ignore
		}
		if r.Outcome == canaryRemoved {
			delete(st.Canary, key)
			return
		}
		cs.Outcome, cs.Reason = r.Outcome, r.Reason
		cs.Observations, cs.Heartbeats = r.Observations, r.Heartbeats
		cs.AgreePSI, cs.Spread, cs.PassDelta = r.AgreePSI, r.Spread, r.PassDelta
	case *driftBaselineRec:
		st := s.node(r.Node)
		if st.Drift == nil {
			st.Drift = make(map[string]*driftState)
		}
		// A freeze starts the pair over: the window boundary and latest
		// snapshot sit at the baseline, nothing is scored yet.
		st.Drift[r.Key] = &driftState{
			Baseline: r.Baseline, BaselineSet: true,
			Prev: r.Baseline, Last: r.Baseline, Version: r.Version,
		}
	case *moveInRec:
		// Wholesale replacement: the moved-in state is the node's whole
		// truth at move time; anything this shard accumulated before is a
		// stale earlier incarnation (A→B→A re-homes land here).
		s.Nodes[r.Name] = r.Node
	default:
		panic(fmt.Sprintf("fleet: apply: no mutation defined for record %T", rec))
	}
}

// stateFormat heads every snapshot: the payload is gob(stateFormat)
// followed by gob(shardState). gob matches fields by name and silently
// drops those it cannot place, so a snapshot written under other field
// names would decode into a state that quietly lost them; recovery
// refuses any snapshot that does not start with this number instead.
// Bump it whenever a durable field is renamed or changes meaning.
const stateFormat = 3

// encodeGob gob-encodes vs, in order, as one stream.
func encodeGob(vs ...any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// commit is the live half of the state machine: compact if due (see
// compactDue), log the record, apply it. Callers hold sh.mu. It reports
// whether the record reached the log (always true without a state
// dir). An append failure is logged and the record still applies —
// durability is best-effort for every kind but an upload, which is
// neither applied nor, by acceptUpload, acked: the edge keeps it
// buffered and retransmits, so an acked upload is always on disk.
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
		if sh.compactDue() {
			if err := sh.snapshotLocked(); err != nil {
				sh.c.cfg.Log.Error("fleet: wal snapshot failed", "shard", sh.id, "err", err)
			}
		}
		payload, err := transport.AppendPayload(nil, rec)
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

// compactDue reports whether commit should compact before its append:
// once at least SnapshotEvery records AND at least as many bytes as the
// last snapshot have accumulated in the active wal. The byte rule makes
// every snapshot paid for by an equal volume of log appended after it,
// so the bytes compaction writes, all but the newest snapshot, total at
// most the bytes the wal took — linear in the run, where a record count
// alone rewrites the whole growing state every SnapshotEvery records,
// quadratic in the run. Recovery then reads the snapshot plus a wal no
// larger than it (or than SnapshotEvery records): about twice the state.
// Callers hold sh.mu and a shard with a wal.
func (sh *shard) compactDue() bool {
	every := sh.c.cfg.SnapshotEvery
	return every >= 0 && sh.wal.Pending() >= every && sh.wal.Size() >= sh.wal.SnapshotSize()
}

// snapshotLocked writes the shard's full state as a snapshot,
// compacting the wal. Callers hold sh.mu and a shard with a wal.
func (sh *shard) snapshotLocked() error {
	payload, err := encodeGob(stateFormat, &sh.shardState)
	if err != nil {
		return err
	}
	if err := sh.wal.WriteSnapshot(payload); err != nil {
		return err
	}
	sh.snapshots++
	return nil
}

// replayLog rebuilds one log directory's shard state — its snapshot,
// then every wal record through apply — and counts the records.
func replayLog(l *walog.Log) (shardState, int, error) {
	s := newShardState()
	if snap := l.Snapshot(); snap != nil {
		dec := gob.NewDecoder(bytes.NewReader(snap))
		var format int
		if err := dec.Decode(&format); err != nil || format != stateFormat {
			return s, 0, fmt.Errorf("snapshot is not in state format %d (written by an older version?)", stateFormat)
		}
		s = shardState{}
		if err := dec.Decode(&s); err != nil {
			return s, 0, fmt.Errorf("snapshot: %w", err)
		}
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
	// Dirs is the number of shard log directories found.
	Dirs int
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
// Retired directories (index beyond the configured shard count) are
// deleted once every winner they held is durable on its new owner,
// exactly as Resize retires a shard.
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
		idx   int
		path  string
		log   *walog.Log
		state shardState
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
		dirs = append(dirs, recovered{idx: idxs[i], path: path, log: l, state: state})
		stats.RecordsReplayed += records
		stats.SnapshotBytes += l.SnapshotSize()
		stats.TornBytes += l.TornBytes()
	}
	stats.Dirs = len(dirs)

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
	// Resolve node winners across logs by incarnation (Rehomed): every
	// move between logs bumps it, so the highest copy is the newest.
	// Ties break toward higher generation, then lower directory index —
	// deterministic, and unreachable when move ordering held. Retired
	// directories are considered too: Resize deletes one only once its
	// nodes' move-ins are durable elsewhere, so a surviving retired
	// directory may hold the only durable copy of a node.
	type winner struct {
		st     *nodeState
		srcIdx int
	}
	winners := make(map[string]winner)
	for _, d := range dirs {
		for name, st := range d.state.Nodes {
			w, ok := winners[name]
			if !ok || cmp.Or(
				cmp.Compare(st.Rehomed, w.st.Rehomed),
				cmp.Compare(st.Gen, w.st.Gen),
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
		w.st.Rehomed++
		sh := c.shards[target]
		if !sh.commit(&moveInRec{Name: name, Node: w.st}) {
			return nil, fmt.Errorf("fleet: recovery move-in %q to shard %d: wal append failed", name, target)
		}
		if err := sh.wal.Sync(); err != nil {
			return nil, fmt.Errorf("fleet: recovery move-in %q to shard %d: %w", name, target, err)
		}
	}
	for i, sh := range c.shards {
		for name := range sh.Nodes {
			if c.ring.owner(name) != i {
				delete(sh.Nodes, name)
			}
		}
	}
	stats.Nodes = len(winners)

	// With every winner durable on its owner, retired directories hold
	// only stale copies: delete them.
	for _, d := range retired {
		d.log.Close()
		_ = os.RemoveAll(d.path)
	}

	// Compact: with move-ins durable, snapshot order across shards no
	// longer matters.
	for _, sh := range c.shards {
		if err := sh.snapshotLocked(); err != nil {
			c.cfg.Log.Error("fleet: recovery snapshot failed", "shard", sh.id, "err", err)
		}
	}

	stats.Replay = time.Since(start)
	return stats, nil
}
