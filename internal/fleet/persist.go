package fleet

import (
	"cmp"
	"encoding/binary"
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
// dedup high-water mark and upload ledger, a drift baseline freeze, a
// node arriving from another shard — is one record below, and
// shardState.apply is the only code that performs it. The live path
// (shard.commit) logs the record and then applies the typed value it
// already holds; recovery (replayLog) decodes each logged record and
// calls the same apply. Replay equals live by construction, not by
// keeping two copies of every mutation in step.
//
// A snapshot is records too: one move-in record per node, framed as on
// the wire. It becomes the compacted prefix of the log's next
// generation, replayed by the same decode-and-apply loop as the records
// appended after it.
//
// What heartbeats alone derive is soft state and has no record: a drift
// pair's window boundary, scores, and drifted flag (and the reset of a
// pair whose model version changed — replay restores the last frozen
// baseline and the first heartbeat re-detects the change), a node's
// Evicted/Reconnects counters, and the existence of a node record with
// nothing logged in it. A move-in record carries the whole node, so
// soft state rides along in a snapshot; a WAL-only recovery starts soft
// state from zero and the next heartbeats rebuild it.
//
// The kind numbers are on-disk format — append only, never renumber.
// They also version the payloads. An upload and a move-in are binary
// layouts, read field by field in a fixed order; the intent, seq-reset
// and drift-baseline records are gob, which matches fields by name and
// silently drops those it cannot place. So a payload whose layout
// changes, or whose durable fields (its own or those of the types it
// carries) are renamed or change meaning, gets a new kind, and the old
// number is reserved below. A log still holding the old kind then fails
// replay with the unknown-kind error instead of decoding into a state
// that quietly lost fields.
const (
	// wrecIntent records one intent change: a deploy (MC set), an
	// undeploy or rollback (Remove), with the node's post-op generation.
	wrecIntent uint8 = 1
	// wrecSeqReset records a fresh (non-resume) hello zeroing the
	// node's dedup high-water mark for a new edge incarnation.
	wrecSeqReset uint8 = 3
	// wrecDriftBaseline records a drift baseline freeze for a
	// (node, stream/mc) pair.
	wrecDriftBaseline uint8 = 7
	// wrecUpload records one deduplicated sequenced upload — the full
	// record, not just the high-water mark, so recovery rebuilds the
	// ledger record for record (a lost acked upload is unrecoverable:
	// the edge retired it from its resend buffer on the ack). Its
	// payload is the node name, length prefixed, then the upload in
	// transport.UploadRecord's binary layout (see uploadRec).
	wrecUpload uint8 = 13
	// wrecMoveIn records a node state arriving on this shard — recovery
	// placing a node on a different shard than the log it was recovered
	// from, or a snapshot, which holds one per node. The payload is the
	// whole nodeState in moveInRec's binary layout; apply adopts it
	// wholesale, and the Rehomed counter acts as the incarnation number
	// that picks the winner when several logs hold copies of the same
	// node. Only a mover bumps Rehomed; a snapshot never does.
	wrecMoveIn uint8 = 15
	// Kind 2 was the gob-encoded upload record, kinds 4, 5 and 6 the
	// retired canary's start, install-epoch and verdict records, kinds 8
	// and 9 the move-in and fold records of the format that mirrored the
	// state in separate snapshot structs, kind 10 an upload over the
	// retired one-way protocol, kind 11 the move-in of a node record
	// that still carried canary state, kind 12 a retired shard's
	// aggregate ledger folding into shard 0, and kind 14 the gob-encoded
	// move-in that kind 15's binary layout replaced. Reserved: never
	// reuse the numbers. A log that still holds one fails replay with
	// the unknown-kind error instead of being half-decoded.
)

// record is one typed WAL record: the argument of shardState.apply.
type record interface{ kind() uint8 }

func (*intentRec) kind() uint8        { return wrecIntent }
func (*uploadRec) kind() uint8        { return wrecUpload }
func (*seqResetRec) kind() uint8      { return wrecSeqReset }
func (*driftBaselineRec) kind() uint8 { return wrecDriftBaseline }
func (*moveInRec) kind() uint8        { return wrecMoveIn }

// newRecord maps an on-disk kind to an empty record to decode into.
var newRecord = [...]func() record{
	wrecIntent:        func() record { return new(intentRec) },
	wrecUpload:        func() record { return new(uploadRec) },
	wrecSeqReset:      func() record { return new(seqResetRec) },
	wrecDriftBaseline: func() record { return new(driftBaselineRec) },
	wrecMoveIn:        func() record { return new(moveInRec) },
}

// decodeRecord turns one logged (kind, payload) back into its typed
// record. A record's payload is the one a wire record of the same value
// would carry (transport.AppendPayload): the binary layout for an
// upload and a move-in, gob for every other kind.
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

// driftBaselineRec is the wrecDriftBaseline payload.
type driftBaselineRec struct {
	Node, Key string
	Baseline  obs.SketchSnapshot
	Version   uint64
}

// moveInRec is the wrecMoveIn payload: one node's whole state, logged
// in transport's layout vocabulary as
//
//	Name | uvarint Gen | uvarint LastSeq |
//	varint Evicted | varint Reconnects | varint Rehomed |
//	intent: a count of streams, each its name and a count of MCs,
//	  each its name, MC bytes, float32 Threshold, uvarint Version |
//	ledger: a count of MCs, each its name and a count of uploads,
//	  each uvarint EventID | varint Start | varint End−Start |
//	  varint Bits | Final byte |
//	drift: a count of pairs, each its key, the Baseline sketch,
//	  BaselineSet, the Prev and Last sketches, uvarint Version,
//	  float64 PSI, float64 KS, varint Windows, Drifted
//
// An MC's name is written once, not per upload, so a ledger takes
// about 11 bytes an upload at frame-scale numbers (the gob node record
// took about 32), and one node's record holds some 1.5 million uploads
// within walog.MaxRecordBytes. Decoding refuses
// truncated input, trailing bytes, a flag byte other than 0 or 1, a
// repeated map key, and a count the remaining bytes could not hold,
// before allocating for it. An empty intent or drift map decodes to
// nil, an empty stream's MC map to an empty map.
type moveInRec struct {
	Name string
	Node *nodeState
}

// Minimum encoded entry sizes, which bound the counts a move-in
// decoder accepts.
const (
	minDeploymentBytes = 1 + 1 + 4 + 1                                // name, MC, Threshold, Version
	minLedgerBytes     = 1 + 1 + 1 + 1 + 1                            // EventID, Start, End−Start, Bits, Final
	minDriftBytes      = 1 + 3*minSketchBytes + 1 + 1 + 8 + 8 + 1 + 1 // key, sketches, BaselineSet, Version, PSI, KS, Windows, Drifted
)

func (r *moveInRec) AppendBinary(b []byte) ([]byte, error) {
	st := r.Node
	b = transport.AppendString(b, r.Name)
	b = binary.AppendUvarint(b, st.Gen)
	b = binary.AppendUvarint(b, st.LastSeq)
	b = binary.AppendVarint(b, int64(st.Evicted))
	b = binary.AppendVarint(b, int64(st.Reconnects))
	b = binary.AppendVarint(b, int64(st.Rehomed))

	b = binary.AppendUvarint(b, uint64(len(st.Intent)))
	for stream, mcs := range st.Intent {
		b = transport.AppendString(b, stream)
		b = binary.AppendUvarint(b, uint64(len(mcs)))
		for name, dep := range mcs {
			b = transport.AppendString(b, name)
			b = binary.AppendUvarint(b, uint64(len(dep.MC)))
			b = append(b, dep.MC...)
			b = transport.AppendFloat32(b, dep.Threshold)
			b = binary.AppendUvarint(b, dep.Version)
		}
	}

	b = binary.AppendUvarint(b, uint64(st.DC.Applications()))
	st.DC.Walk(func(name string, n int) {
		b = transport.AppendString(b, name)
		b = binary.AppendUvarint(b, uint64(n))
	}, func(u core.Upload) {
		b = binary.AppendUvarint(b, u.EventID)
		b = binary.AppendVarint(b, int64(u.Start))
		b = binary.AppendVarint(b, int64(u.End-u.Start))
		b = binary.AppendVarint(b, u.Bits)
		b = transport.AppendBool(b, u.Final)
	})

	b = binary.AppendUvarint(b, uint64(len(st.Drift)))
	for key, ds := range st.Drift {
		b = transport.AppendString(b, key)
		b = appendSketch(b, &ds.Baseline)
		b = transport.AppendBool(b, ds.BaselineSet)
		b = appendSketch(b, &ds.Prev)
		b = appendSketch(b, &ds.Last)
		b = binary.AppendUvarint(b, ds.Version)
		b = transport.AppendFloat64(b, ds.PSI)
		b = transport.AppendFloat64(b, ds.KS)
		b = binary.AppendVarint(b, int64(ds.Windows))
		b = transport.AppendBool(b, ds.Drifted)
	}
	return b, nil
}

func (r *moveInRec) UnmarshalBinary(data []byte) error {
	d := transport.NewLayoutReader(data)
	name := d.String()
	st := &nodeState{
		Gen: d.Uvarint(), LastSeq: d.Uvarint(),
		Evicted: d.Int(), Reconnects: d.Int(), Rehomed: d.Int(),
		DC: core.NewDatacenter(),
	}
	if n := d.Count(2); n > 0 { // a stream name and a count
		st.Intent = make(map[string]map[string]deployment, n)
		for range n {
			stream := d.String()
			k := d.Count(minDeploymentBytes)
			mcs := make(map[string]deployment, k)
			for range k {
				name := d.String()
				dep := deployment{MC: append([]byte(nil), d.Bytes()...), Threshold: d.Float32(), Version: d.Uvarint()}
				if _, dup := mcs[name]; dup {
					d.Fail(fmt.Errorf("stream %q deploys %q twice", stream, name))
				}
				mcs[name] = dep
			}
			if _, dup := st.Intent[stream]; dup {
				d.Fail(fmt.Errorf("intent for stream %q twice", stream))
			}
			st.Intent[stream] = mcs
		}
	}
	next := func() core.Upload {
		u := core.Upload{EventID: d.Uvarint(), Start: d.Int()}
		u.End = u.Start + d.Int()
		u.Bits, u.Final = d.Varint(), d.Bool()
		return u
	}
	for n := d.Count(2); n > 0; n-- { // an MC name and a count
		mc := d.String()
		if !st.DC.Restore(mc, d.Count(minLedgerBytes), next) {
			d.Fail(fmt.Errorf("ledger of %q twice", mc))
		}
	}
	if n := d.Count(minDriftBytes); n > 0 {
		st.Drift = make(map[string]*driftState, n)
		for range n {
			key := d.String()
			ds := new(driftState)
			readSketch(&d, &ds.Baseline)
			ds.BaselineSet = d.Bool()
			readSketch(&d, &ds.Prev)
			readSketch(&d, &ds.Last)
			ds.Version, ds.PSI, ds.KS, ds.Windows, ds.Drifted = d.Uvarint(), d.Float64(), d.Float64(), d.Int(), d.Bool()
			if _, dup := st.Drift[key]; dup {
				d.Fail(fmt.Errorf("drift pair %q twice", key))
			}
			st.Drift[key] = ds
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("move-in record: %w", err)
	}
	r.Name, r.Node = name, st
	return nil
}

// shardState is the durable part of a shard: what the log's records
// rebuild. A snapshot holds it as one move-in record per node. The live
// shard embeds one and recovery builds one per log directory, both
// through apply. A move-in record's layout (moveInRec) writes every
// field of nodeState and of the types it holds, so a field added to
// them needs layout code, or snapshots drop it.
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
// callers hold the shard mutex.
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
// kind is also idempotent — absolute generations, overwritten
// baselines, wholesale move-ins, seq-deduped uploads — so a record
// reaching a state that already reflects it changes nothing.
func (s *shardState) apply(rec record) {
	switch r := rec.(type) {
	case *intentRec:
		st := s.node(r.Node)
		if r.Remove {
			delete(st.Intent[r.Stream], r.Name)
		} else {
			// Maps are made on first write, here as in the drift case: a
			// node record decodes an empty one as nil (see moveInRec).
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

// commit is the live half of the state machine, and it takes a group of
// records as its one unit: a session's uploads that arrived together,
// or a single intent, seq-reset, drift-baseline or move-in record. It
// compacts if due (see compactDue), drops the group's retransmissions
// (see fresh), frames the rest into one buffer, hands that to the wal in
// one write — synced once under WALSync — and applies the records in
// order. Callers hold sh.mu. It returns the records it kept, logged and
// applied (always, without a state dir), or an error with nothing
// applied; the returned slice aliases group's storage.
//
// A group that cannot be logged at all — a record too large to frame
// (walog.ErrTooLarge: an intent whose MC exceeds the record limit) or
// one that does not encode — is refused: commit returns the error and
// applies nothing, and the shard goes on, since nothing was written
// and so nothing is torn.
//
// The first failed write or sync fences the shard: commit logs that
// error once and returns it, and from then until the controller
// reopens it writes nothing, applies nothing and returns the same
// error for every group that keeps a record. A record that missed the
// wal therefore never becomes live — no node sees a generation that
// recovery forgets, and an upload is neither accounted nor, by
// acceptUploads, acked, so the edge keeps it buffered and retransmits.
// And nothing lands behind a wal tail a failed write may have torn,
// where recovery's truncation at the torn record would take every
// later acked record with it. Reopening truncates the torn tail. A
// failed compaction does not fence: WriteSnapshot leaves the old
// generation in place, and compactDue backs off.
//
// Compaction runs BEFORE the write, at a group boundary, never after
// or inside a group: at entry every logged record has been applied, so
// a snapshot taken here captures exactly the records it compacts away,
// and the group lands in the fresh generation to replay on top of it.
// Compacting after the write would snapshot state that lacks the
// just-logged records and then delete the generation holding them.
func (sh *shard) commit(group ...record) ([]record, error) {
	group = sh.fresh(group)
	if sh.wal != nil && len(group) > 0 {
		if sh.fenced != nil {
			return group, sh.fenced
		}
		if sh.compactDue() {
			if err := sh.snapshotLocked(); err != nil {
				size := sh.wal.Size()
				sh.c.cfg.Log.Error("fleet: wal snapshot failed", "shard", sh.id,
					"records", sh.failedAt, "wal_bytes", size, "encoded", sh.retrySize-size, "err", err)
			}
		}
		buf := sh.encoded[:0]
		for _, rec := range group {
			at := len(buf)
			var err error
			if buf, err = transport.AppendPayload(append(buf, make([]byte, walog.RecordHeaderLen)...), rec); err != nil {
				return group, fmt.Errorf("fleet: shard %d: encode record: %w", sh.id, err)
			}
			if err := walog.Frame(buf[at:], rec.kind(), buf[at+walog.RecordHeaderLen:]); err != nil {
				return group, fmt.Errorf("fleet: shard %d: %w", sh.id, err)
			}
		}
		if cap(buf) <= walog.MaxKeptBytes {
			sh.encoded = buf
		}
		start := time.Now()
		err := sh.wal.AppendRecords(buf)
		if err == nil && sh.c.cfg.WALSync {
			err = sh.wal.Sync()
		}
		sh.walAppend.Observe(time.Since(start))
		sh.walWrites++
		sh.walRecords += len(group)
		if err != nil {
			sh.fenced = fmt.Errorf("fleet: shard %d fenced until reopen: wal append: %w", sh.id, err)
			sh.c.cfg.Log.Error("fleet: wal append failed, shard fenced until reopen",
				"shard", sh.id, "records", len(group), "err", err)
			return group, sh.fenced
		}
	}
	for _, rec := range group {
		sh.apply(rec)
	}
	return group, nil
}

// fresh drops from group, in place, every sequenced upload at or below
// its node's high-water mark — the node's LastSeq, or the highest
// sequence number kept earlier in the group: a retransmission of a
// record already logged, or logged with this group. Callers hold sh.mu.
func (sh *shard) fresh(group []record) []record {
	kept := group[:0]
	var node string
	var mark uint64
	seen := false
	for _, rec := range group {
		if u, ok := rec.(*uploadRec); ok && u.Rec.Seq != 0 {
			if !seen || u.Node != node {
				seen, node, mark = true, u.Node, 0
				if st := sh.Nodes[node]; st != nil {
					mark = st.LastSeq
				}
				for _, k := range kept {
					if ku, ok := k.(*uploadRec); ok && ku.Node == node {
						mark = max(mark, ku.Rec.Seq)
					}
				}
			}
			if u.Rec.Seq <= mark {
				continue
			}
			mark = u.Rec.Seq
		}
		kept = append(kept, rec)
	}
	return kept
}

// compactDue reports whether commit should compact before its write:
// once at least SnapshotEvery records AND at least as many bytes as the
// last snapshot have accumulated in the active wal. The byte rule makes
// every snapshot paid for by an equal volume of log appended after it,
// so the bytes compaction writes, all but the newest snapshot, total at
// most the bytes the wal took — linear in the run, where a record count
// alone rewrites the whole growing state every SnapshotEvery records,
// quadratic in the run. Recovery then reads the snapshot plus a wal no
// larger than it (or than SnapshotEvery records): about twice the state.
// A failed compaction is paid for the same way: the retry waits for
// SnapshotEvery more records and for as many more wal bytes as the
// failed attempt encoded. A full disk, a missing directory or a node
// whose record outgrew walog.MaxRecordBytes then costs encodes that
// total at most about the bytes the wal took, not a re-encode of the
// whole state every SnapshotEvery records. Callers hold sh.mu and a
// shard with a wal.
func (sh *shard) compactDue() bool {
	every := sh.c.cfg.SnapshotEvery
	return every >= 0 && sh.wal.Pending()-sh.failedAt >= every && sh.wal.Size() >= max(sh.wal.SnapshotSize(), sh.retrySize)
}

// snapshotLocked compacts the wal into a snapshot of the shard's
// state. A failure leaves the wal as it was and sets failedAt and
// retrySize from the bytes encoded. Callers hold sh.mu and a shard with
// a wal.
func (sh *shard) snapshotLocked() error {
	state, err := sh.encodeState()
	if err == nil {
		err = sh.wal.WriteSnapshot(state)
	}
	if err != nil {
		sh.failedAt, sh.retrySize = sh.wal.Pending(), sh.wal.Size()+int64(len(state))
		return err
	}
	sh.snapshots++
	sh.failedAt, sh.retrySize = 0, 0
	return nil
}

// encodeState frames the shard's state as a snapshot: one move-in
// record per node, framed as on the wire. On failure it returns what
// it encoded, the record that failed included, with the error.
// Callers hold sh.mu and a shard with a wal.
//
// The buffer is allocated once, sized to the last snapshot plus the
// log appended since: the state grows by about what was logged, and
// by less for uploads (an upload's ~40 logged bytes become ~11 in its
// node's ledger), so the snapshot fits it without regrowing.
func (sh *shard) encodeState() ([]byte, error) {
	buf := make([]byte, 0, sh.wal.SnapshotSize()+sh.wal.Size())
	for _, name := range slices.Sorted(maps.Keys(sh.Nodes)) {
		at := len(buf)
		var err error
		buf, err = transport.AppendPayload(append(buf, make([]byte, walog.RecordHeaderLen)...), &moveInRec{Name: name, Node: sh.Nodes[name]})
		if err == nil {
			err = walog.Frame(buf[at:], wrecMoveIn, buf[at+walog.RecordHeaderLen:])
		}
		if err != nil {
			return buf, fmt.Errorf("snapshot node %q: %w", name, err)
		}
	}
	return buf, nil
}

// replayLog rebuilds one log directory's shard state: the records of
// the log's compacted prefix, then those appended after it, decoded and
// applied in order by one loop. It returns the state and the number of
// records replayed after the prefix.
func replayLog(l *walog.Log) (shardState, int, error) {
	s := newShardState()
	replay := func(recs []walog.Record, what string) error {
		for i, r := range recs {
			rec, err := decodeRecord(r.Kind, r.Payload)
			if err != nil {
				return fmt.Errorf("%s %d (kind %d): %w", what, i, r.Kind, err)
			}
			s.apply(rec)
		}
		return nil
	}
	if err := replay(l.Snapshot(), "snapshot record"); err != nil {
		return s, 0, err
	}
	if err := replay(l.Records(), "record"); err != nil {
		return s, 0, err
	}
	return s, len(l.Records()), nil
}

// RecoveryStats summarizes a controller's state recovery from its
// StateDir: what was replayed, what it cost, and what was repaired.
type RecoveryStats struct {
	// Dirs is the number of shard log directories found.
	Dirs int
	// Nodes is the number of node records recovered (after resolving
	// duplicates across logs by incarnation).
	Nodes int
	// Moved is the number of node records re-homed onto a different
	// shard than the log they were recovered from — nonzero when the
	// shard count changed since the state was written.
	Moved int
	// RecordsReplayed counts the records applied across all logs from
	// after their compacted prefixes (the prefixes' records not
	// included).
	RecordsReplayed int
	// SnapshotBytes totals the header and compacted prefix of each
	// log's generation loaded; TornBytes totals the torn wal tails
	// truncated on open.
	SnapshotBytes int64
	TornBytes     int64
	// Replay is the wall-clock cost of the whole recovery.
	Replay time.Duration
}

// shardDirName names shard i's log directory under StateDir.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// recoverState opens the previous configuration and resizes it to
// cfg.Shards. Every "shard-NNNN" directory under cfg.StateDir is
// replayed into shard NNNN — indices at or beyond cfg.Shards included,
// gaps left as log-less shards — and each in-range shard without a
// directory gets a fresh log. Where several logs hold the same node,
// the copy of highest incarnation (Rehomed) wins, then the higher
// generation, then the lower directory index, and the others are
// dropped. rehome then moves each node to its owner and retires the
// out-of-range shards; recovery fails if any move-in did not become
// durable. Called once from OpenController before the controller
// serves. Every log it opens lives in c.shards, so OpenController's
// cleanup closes them all on failure.
func (c *Controller) recoverState() (*RecoveryStats, error) {
	start := time.Now()
	stats := &RecoveryStats{}
	if err := os.MkdirAll(c.cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	idxs, paths, err := walog.ListDirs(c.cfg.StateDir, "shard-")
	if err != nil {
		return nil, err
	}
	keep := len(c.shards)
	for i, path := range paths {
		for len(c.shards) <= idxs[i] {
			c.shards = append(c.shards, newShard(len(c.shards), c))
		}
		sh := c.shards[idxs[i]]
		if sh.wal != nil {
			return nil, fmt.Errorf("fleet: two state directories for shard %d: %s and %s", idxs[i], sh.wal.Dir(), path)
		}
		if sh.wal, err = walog.Open(path); err != nil {
			return nil, fmt.Errorf("fleet: open shard log %s: %w", path, err)
		}
		state, records, err := replayLog(sh.wal)
		if err != nil {
			return nil, fmt.Errorf("fleet: replay %s: %w", path, err)
		}
		sh.shardState = state
		stats.RecordsReplayed += records
		stats.SnapshotBytes += sh.wal.SnapshotSize()
		stats.TornBytes += sh.wal.TornBytes()
	}
	stats.Dirs = len(paths)
	for _, sh := range c.shards[:keep] {
		if sh.wal == nil {
			path := filepath.Join(c.cfg.StateDir, shardDirName(sh.id))
			if sh.wal, err = walog.Open(path); err != nil {
				return nil, fmt.Errorf("fleet: open shard log %s: %w", path, err)
			}
		}
	}

	// Every move between logs bumps the incarnation, so the highest copy
	// is the newest; the tie-breaks are deterministic and unreachable
	// when move ordering held. Shards are visited in index order, so a
	// full tie keeps the lower index.
	held := make(map[string]*shard) // the shard holding each node's winning copy
	for _, sh := range c.shards {
		for name, st := range sh.Nodes {
			w := held[name]
			if w != nil && cmp.Or(
				cmp.Compare(st.Rehomed, w.Nodes[name].Rehomed),
				cmp.Compare(st.Gen, w.Nodes[name].Gen)) <= 0 {
				delete(sh.Nodes, name)
				continue
			}
			if w != nil {
				delete(w.Nodes, name)
			}
			held[name] = sh
		}
	}
	stats.Nodes = len(held)

	var lost []int
	if stats.Moved, lost = c.rehome(keep); len(lost) > 0 {
		return nil, fmt.Errorf("fleet: recovery: move-ins out of shards %v are not durable", lost)
	}
	// Compact: with move-ins durable, snapshot order across shards no
	// longer matters, and the dropped copies leave the logs.
	for _, sh := range c.shards {
		if err := sh.snapshotLocked(); err != nil {
			c.cfg.Log.Error("fleet: recovery snapshot failed", "shard", sh.id, "err", err)
		}
	}

	stats.Replay = time.Since(start)
	return stats, nil
}

// rehome is recovery's re-shard and the one path that moves node
// records between shard logs. Under c.ring, built for keep shards, it
// moves every node record held by a shard other than its owner: the
// record's incarnation (Rehomed) bumps and a move-in carrying it
// commits on the owner. Then it syncs each log that took a move-in,
// once per log, and retires every shard at index keep or above: its
// log closes, and its directory is deleted only when every move-in out
// of it is durable — otherwise the directory is the only durable copy
// of those nodes and stays for the next recovery to re-home from. A
// process crash at any point therefore leaves each node's newest
// incarnation in some log (see README, "Fsync policy and re-homing",
// for the one power-loss window). It returns the number of nodes moved
// and the sorted indices of the shards some move-in out of which did
// not become durable. The controller must not serve yet.
func (c *Controller) rehome(keep int) (moved int, lost []int) {
	type move struct {
		node     string
		from, to int
	}
	var moves []move
	for idx, sh := range c.shards {
		for name := range sh.Nodes {
			if to := c.ring.owner(name); to != idx {
				moves = append(moves, move{node: name, from: idx, to: to})
			}
		}
	}
	slices.SortFunc(moves, func(a, b move) int { return cmp.Compare(a.node, b.node) })

	failed := make(map[int]bool)   // sources with a move-in not durable
	sources := make(map[int][]int) // target -> the sources of its move-ins
	for _, m := range moves {
		from, to := c.shards[m.from], c.shards[m.to]
		st := from.Nodes[m.node]
		delete(from.Nodes, m.node)
		// The move-in record carries the node's full state at its next
		// incarnation: whichever log last wrote the node at the highest
		// Rehomed wins recovery, so the stale copy still sitting in the
		// source shard's log can never resurrect.
		st.Rehomed++
		rec := &moveInRec{Name: m.node, Node: st}
		if _, err := to.commit(rec); err != nil {
			// A fenced owner applies nothing, but the source directory,
			// kept below, holds the node's durable copy: memory holds it
			// too, as the next recovery will.
			to.apply(rec)
			failed[m.from] = true
		}
		sources[m.to] = append(sources[m.to], m.from)
		c.cfg.Log.Info("fleet: node re-homed", "node", m.node, "from", m.from, "to", m.to)
	}
	for _, to := range slices.Sorted(maps.Keys(sources)) {
		if w := c.shards[to].wal; w != nil && w.Sync() != nil {
			for _, from := range sources[to] {
				failed[from] = true
			}
		}
	}
	for _, sh := range c.shards[keep:] {
		w := sh.wal
		sh.wal = nil
		if w == nil {
			continue
		}
		dir := w.Dir()
		w.Close()
		if failed[sh.id] {
			c.cfg.Log.Error("fleet: retired shard's move-ins not durable, keeping state dir", "dir", dir)
			continue
		}
		_ = os.RemoveAll(dir)
	}
	c.shards = c.shards[:keep]
	return len(moves), slices.Sorted(maps.Keys(failed))
}
