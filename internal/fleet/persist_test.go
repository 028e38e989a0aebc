package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/walog"
)

// durableTypes are the types a snapshot encodes field for field.
var durableTypes = []reflect.Type{
	reflect.TypeFor[shardState](),
	reflect.TypeFor[nodeState](),
	reflect.TypeFor[deployment](),
	reflect.TypeFor[driftState](),
}

// requireFull fails for every field of a durable type reachable from v
// that is unexported (durable fields are kept exported, as they were
// while snapshots were gob) or zero (a round trip of v would not cover
// it).
func requireFull(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		requireFull(t, path, v.Elem())
	case reflect.Map:
		for _, k := range v.MapKeys() {
			requireFull(t, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Struct:
		if !slices.Contains(durableTypes, v.Type()) {
			return
		}
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			p := path + "." + f.Name
			switch {
			case !f.IsExported():
				t.Errorf("%s is unexported: durable fields are kept exported", p)
			case fv.IsZero() || (fv.Kind() == reflect.Map && fv.Len() == 0):
				t.Errorf("%s is zero: give it a value so the round trip covers it", p)
			default:
				requireFull(t, p, fv)
			}
		}
	}
}

// fullState is a shard state of two nodes in which every field of
// every durable type holds a non-zero value, so a snapshot of it is
// more than one move-in record.
func fullState() shardState {
	return shardState{Nodes: map[string]*nodeState{"edge-1": fullNode(0), "edge-2": fullNode(1)}}
}

// fullNode is a node record with every durable field set; i shifts the
// values so two nodes differ.
func fullNode(i int) *nodeState {
	sk := cumSketch(alt(0.2, 0.7, 16))
	ledger := core.NewDatacenter()
	ledger.Receive(core.Upload{MCName: "cam0/mc-1", EventID: uint64(3 + i), Start: 10, End: 14, Bits: 900, Final: true})
	u := uint64(i)
	return &nodeState{
		Intent: map[string]map[string]deployment{"cam0": {"mc-1": {MC: []byte{1, 2, 3}, Threshold: 0.5, Version: 2 + u}}},
		Gen:    4 + u, LastSeq: 9 + u, DC: ledger, Evicted: 1 + i, Reconnects: 2 + i, Rehomed: 3 + i,
		Drift: map[string]*driftState{"cam0/mc-1": {
			Baseline: sk, BaselineSet: true, Prev: sk, Last: sk, Version: 2 + u,
			PSI: 0.3, KS: 0.4, Windows: 5 + i, Drifted: true,
		}},
	}
}

// encodeGob gob-encodes vs, in order, as one stream: how the tests
// write payloads in shapes the current code no longer logs.
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

// snapshotRoundTrip writes st as a shard snapshot into a fresh log
// directory and replays it back.
func snapshotRoundTrip(t *testing.T, st shardState) shardState {
	t.Helper()
	dir := t.TempDir()
	l, err := walog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shard{shardState: st, wal: l}
	if err := sh.snapshotLocked(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = walog.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _, err := replayLog(l)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStateRoundTrip is the guard that a durable field gets layout
// code: every durable field must be exported and must survive a
// snapshot — one move-in record per node, in moveInRec's binary layout,
// replayed through decodeRecord and apply — unchanged. A field added
// later fails here until fullNode gives it a value, and then until
// moveInRec writes and reads it.
func TestStateRoundTrip(t *testing.T) {
	want := fullState()
	requireFull(t, "shardState", reflect.ValueOf(want))
	got := snapshotRoundTrip(t, want)
	if !slices.Equal(slices.Sorted(maps.Keys(got.Nodes)), slices.Sorted(maps.Keys(want.Nodes))) {
		t.Fatalf("snapshot round trip recovered nodes %v, want %v", slices.Sorted(maps.Keys(got.Nodes)), slices.Sorted(maps.Keys(want.Nodes)))
	}
	for name, node := range want.Nodes {
		if !reflect.DeepEqual(got.Nodes[name], node) {
			t.Errorf("snapshot round trip of %s:\n got  %s\n want %s", name, withoutMCBytes(*got.Nodes[name]), withoutMCBytes(*node))
		}
	}
}

// TestRecoveredEmptyNodeAppliesEveryKind recovers a node whose intent,
// drift and ledger are all empty — the maps a decode can leave
// nil — and applies one record of every live kind to it.
func TestRecoveredEmptyNodeAppliesEveryKind(t *testing.T) {
	sk := cumSketch(alt(0.2, 0.7, 16))
	up := transport.UploadRecord{MCName: "cam0/mc-1", EventID: 1, Start: 0, End: 4, Bits: 100, Final: true, Seq: 1}
	recs := []record{
		&intentRec{Node: "edge-1", Stream: "cam0", Name: "mc-1", MC: []byte{1}, Threshold: 0.5, Version: 1, Gen: 1},
		&seqResetRec{Node: "edge-1"},
		&driftBaselineRec{Node: "edge-1", Key: "cam0/mc-1", Baseline: sk, Version: 1},
		&uploadRec{Node: "edge-1", Rec: up},
		&moveInRec{Name: "edge-1", Node: fullState().Nodes["edge-1"]},
	}
	var kinds []int
	for _, rec := range recs {
		kinds = append(kinds, int(rec.kind()))
		t.Run(fmt.Sprintf("kind=%d", rec.kind()), func(t *testing.T) {
			empty := newShardState()
			empty.node("edge-1")
			st := snapshotRoundTrip(t, empty)
			if n := st.Nodes["edge-1"]; n == nil || n.Intent != nil || n.Drift != nil {
				t.Fatalf("recovered node is not the empty one: %+v", n)
			}
			st.apply(rec)
			// Every map the record wrote into is usable afterwards.
			st.apply(&uploadRec{Node: "edge-1", Rec: transport.UploadRecord{MCName: "cam0/mc-2", Seq: 99}})
			if len(st.Nodes["edge-1"].DC.Uploads("cam0/mc-2")) != 1 {
				t.Fatalf("ledger unusable after kind %d: %+v", rec.kind(), st)
			}
		})
	}
	if !slices.Equal(kinds, liveKinds) {
		t.Fatalf("covered kinds %v, want every live kind %v", kinds, liveKinds)
	}
}

// parentLedger gob-encodes a ledger the way core.Datacenter's
// GobEncode did before the ledger left gob: as the gob stream of its
// map of uploads. Embedded in a type named Datacenter, it reproduces a
// gob-encoded *core.Datacenter byte for byte, since gob names a
// GobEncoder by its type name.
type parentLedger map[string][]core.Upload

func (l parentLedger) GobEncode() ([]byte, error) {
	return encodeGob(map[string][]core.Upload(l))
}

// TestOpenRefusesParentFormat writes state directories the way earlier
// formats did — a snapshot of mirror structs and a move-in record
// carrying a mirror of the node; a format-2 snapshot still carrying the
// shard-wide aggregate ledger and folded identities; a fold record; a
// format-3 snapshot, gob(3) then gob(shardState), from before
// snapshots were move-in records; a snapshot of kind-11 move-ins whose
// node records still carried canary state; a snapshot of kind-14
// move-ins, the gob node records of the format before the binary
// move-in — with those shapes declared here; and a directory of walog
// format 1, which kept the compacted state in a snapshot file beside a
// wal with a version-1 header. Recovery must refuse each with an error
// naming the directory, recover no node, and leave the directory as it
// found it.
func TestOpenRefusesParentFormat(t *testing.T) {
	// Datacenter, nodeState, shardState and moveInRec are the ledger,
	// node record, shard state and move-in as gob encoded them while the
	// node record was gob, under the names gob wrote.
	type Datacenter struct{ parentLedger }
	type nodeState struct {
		Intent                       map[string]map[string]deployment
		Gen, LastSeq                 uint64
		DC                           *Datacenter
		Evicted, Reconnects, Rehomed int
		Drift                        map[string]*driftState
	}
	type shardState struct{ Nodes map[string]*nodeState }
	type moveInRec struct {
		Name string
		Node *nodeState
	}
	type parentUpload struct {
		MCName     string
		EventID    uint64
		Start, End int
		Bits       int64
		Final      bool
	}
	type parentDeployment struct {
		Stream, Name string
		MC           []byte
		Threshold    float32
		Version      uint64
	}
	type parentNode struct {
		Name                         string
		Gen, LastSeq                 uint64
		Intent                       []parentDeployment
		Uploads                      []parentUpload
		Evicted, Reconnects, Rehomed int
	}
	type parentShard struct {
		Uploads    int
		UploadBits int64
		DC         []parentUpload
		Nodes      []parentNode
		Folded     []uint64
	}
	type parentMoveIn struct{ Node parentNode }
	// format2Shard is shardState as format 2 had it; format2Fold its
	// fold record (kind 12).
	type format2Shard struct {
		Nodes      map[string]*nodeState
		DC         *Datacenter
		Uploads    int
		UploadBits int64
		Folded     []uint64
	}
	type format2Fold struct {
		FromID     uint64
		Uploads    int
		UploadBits int64
		DC         *Datacenter
	}
	nodeLedger := &Datacenter{parentLedger{"cam0/mc-1": {{MCName: "cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true}}}}
	aggLedger := &Datacenter{parentLedger{"edge-1/cam0/mc-1": {{MCName: "edge-1/cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true}}}}
	ledger := []parentUpload{{MCName: "cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true}}
	node := parentNode{
		Name: "edge-1", Gen: 1, LastSeq: 1, Rehomed: 1, Uploads: ledger,
		Intent: []parentDeployment{{Stream: "cam0", Name: "mc-1", MC: []byte{1}, Threshold: 0.5, Version: 1}},
	}
	intent, err := encodeGob(&intentRec{Node: "edge-2", Stream: "cam0", Name: "mc-1", MC: []byte{1}, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A gob snapshot is no run of framed records: the compacted prefix
	// it becomes does not scan.
	const notRecords = "compacted prefix: corrupt record"
	// v1Header is a walog format-1 file header: magic, version 1, file
	// type, pad, directory ID and generation.
	v1Header := func(ftype uint8, gen uint64) []byte {
		hdr := binary.BigEndian.AppendUint32(nil, 0xFFA10C01)
		hdr = binary.BigEndian.AppendUint16(hdr, 1)
		hdr = append(hdr, ftype, 0)
		hdr = binary.BigEndian.AppendUint64(hdr, 0xBEEF)
		return binary.BigEndian.AppendUint64(hdr, gen)
	}
	var v1Wal bytes.Buffer
	v1Wal.Write(v1Header(1, 1))
	if err := transport.WriteRecord(&v1Wal, wrecIntent, &intentRec{Node: "edge-2", Stream: "cam0", Name: "mc-1", MC: []byte{1}, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	var v1Snapshot bytes.Buffer
	v1Snapshot.Write(v1Header(2, 1))
	var moveIns bytes.Buffer // one framed kind-14 move-in
	if err := transport.WriteRecord(&moveIns, 14, &moveInRec{Name: "edge-1", Node: &nodeState{Gen: 1, LastSeq: 1, DC: nodeLedger}}); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, walog.RecordHeaderLen)
	if err := walog.Frame(frame, 2, moveIns.Bytes()); err != nil {
		t.Fatal(err)
	}
	v1Snapshot.Write(frame)
	v1Snapshot.Write(moveIns.Bytes())
	// canaryNode is nodeState as it was while node records carried
	// canary state, and canaryMoveIn the kind-11 move-in that held it.
	type parentCanary struct {
		MC               []byte
		Threshold        float32
		Version, Epoch   uint64
		Outcome, Reason  string
		Observations     uint64
		AgreePSI, Spread float64
	}
	type canaryNode struct {
		Intent       map[string]map[string]deployment
		Gen, LastSeq uint64
		DC           *Datacenter
		Canary       map[string]*parentCanary
	}
	type canaryMoveIn struct {
		Name string
		Node *canaryNode
	}
	var canarySnapshot bytes.Buffer
	if err := transport.WriteRecord(&canarySnapshot, 11, &canaryMoveIn{Name: "edge-1", Node: &canaryNode{
		Intent: map[string]map[string]deployment{"cam0": {"mc-1": {MC: []byte{1}, Threshold: 0.5, Version: 1}}},
		Gen:    1, LastSeq: 1, DC: nodeLedger,
		Canary: map[string]*parentCanary{"cam0/mc-1": {MC: []byte{2}, Threshold: 0.5, Version: 2, Epoch: 1}},
	}}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		snapshot []any  // gob-encoded in order; nil: no snapshot
		records  []byte // a snapshot of framed records, when snapshot is nil
		kind     uint8  // a record appended after the intent record; 0: none
		record   any
		files    map[string][]byte // the directory's files, written as they are
		want     string            // in the error
	}{
		{name: "snapshot", snapshot: []any{parentShard{Uploads: 1, UploadBits: 100, DC: ledger, Nodes: []parentNode{node}}},
			want: notRecords},
		{name: "move-in", kind: 8, record: parentMoveIn{Node: node}, want: "unknown wal record kind 8"},
		{name: "format-2", snapshot: []any{2, format2Shard{
			Nodes: map[string]*nodeState{"edge-1": {Gen: 1, LastSeq: 1, DC: nodeLedger}},
			DC:    aggLedger, Uploads: 1, UploadBits: 100, Folded: []uint64{77},
		}}, want: notRecords},
		{name: "fold", kind: 12, record: format2Fold{FromID: 77, Uploads: 1, UploadBits: 100, DC: aggLedger},
			want: "unknown wal record kind 12"},
		{name: "format-3", snapshot: []any{3, shardState{
			Nodes: map[string]*nodeState{"edge-1": {Gen: 1, LastSeq: 1, DC: nodeLedger}},
		}}, want: notRecords},
		{name: "canary-move-in", records: canarySnapshot.Bytes(), want: "unknown wal record kind 11"},
		{name: "gob-move-in", records: moveIns.Bytes(), want: "unknown wal record kind 14"},
		{name: "walog-format-1", files: map[string][]byte{"snapshot": v1Snapshot.Bytes(), "wal-1": v1Wal.Bytes()},
			want: "format-1"},
		{name: "walog-format-1-wal", files: map[string][]byte{"wal-1": v1Wal.Bytes()}, want: "format version 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, shardDirName(0))
			if tc.files != nil {
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, b := range tc.files {
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				l, err := walog.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				snap := tc.records
				if tc.snapshot != nil {
					if snap, err = encodeGob(tc.snapshot...); err != nil {
						t.Fatal(err)
					}
				}
				if snap != nil {
					if err := l.WriteSnapshot(snap); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Append(wrecIntent, intent); err != nil {
					t.Fatal(err)
				}
				if tc.record != nil {
					payload, err := encodeGob(tc.record)
					if err != nil {
						t.Fatal(err)
					}
					if err := l.Append(tc.kind, payload); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := readTree(t, root)

			ctrl, stats, err := OpenController(ControllerConfig{StateDir: root, Shards: 2})
			if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open over a previous-format directory: err %v, want one naming %s and %q", err, dir, tc.want)
			}
			if ctrl != nil || stats != nil {
				t.Fatalf("refused open still returned a controller (%v) or recovery stats (%+v)", ctrl, stats)
			}
			if after := readTree(t, root); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused open changed the state dir:\n before %v\n after  %v", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
			}
		})
	}
}

// readTree maps every file under root to its contents.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCompactionAmortized drives 20k uploads into one durable shard at
// the default SnapshotEvery and pins what the compaction rule promises.
// Each snapshot is written only once the wal holds at least as many
// bytes as the snapshot before it, so every snapshot but the newest is
// paid for by wal appended after it: the bytes compaction writes total
// at most the wal bytes appended plus the newest snapshot — linear in
// the run. A crash then recovers the ledger record for record.
func TestCompactionAmortized(t *testing.T) {
	const uploads = 20_000
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{Timeout: 10 * time.Second, StateDir: t.TempDir()}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }()
	edge := dialScripted(t, n, Hello{Node: "edge-1"})
	sh := ctrl.shards[0]
	walSize := func() int64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.wal.Size()
	}

	// Recovery at open wrote the first snapshot.
	last := ctrl.ShardStats()[0]
	if last.Snapshots != 1 || last.SnapshotBytes == 0 {
		t.Fatalf("open wrote %d snapshots of %d bytes, want 1", last.Snapshots, last.SnapshotBytes)
	}
	snapBytes, walBytes := last.SnapshotBytes, int64(0)
	for seq := uint64(1); seq <= uploads; seq++ {
		compacted := walSize()
		edge.upload(seq, 10*int(seq))
		st := ctrl.ShardStats()[0]
		if st.Snapshots == last.Snapshots {
			continue
		}
		// The upload's commit compacted before appending it: the wal it
		// retired held exactly what it held before the upload.
		if st.Snapshots != last.Snapshots+1 {
			t.Fatalf("upload %d: snapshot count %d → %d", seq, last.Snapshots, st.Snapshots)
		}
		if compacted < last.SnapshotBytes {
			t.Fatalf("upload %d compacted a %d-byte wal after a %d-byte snapshot", seq, compacted, last.SnapshotBytes)
		}
		walBytes += compacted
		snapBytes += st.SnapshotBytes
		last = st
	}
	walBytes += walSize()
	if last.Snapshots < 4 {
		t.Fatalf("%d uploads compacted only %d times: the bound below is vacuous", uploads, last.Snapshots-1)
	}
	if snapBytes > walBytes+last.SnapshotBytes {
		t.Fatalf("snapshots wrote %d bytes; wal appended %d and the newest snapshot is %d", snapBytes, walBytes, last.SnapshotBytes)
	}
	t.Logf("%d uploads: %d snapshots wrote %d bytes (newest %d), wal appended %d bytes",
		uploads, last.Snapshots, snapBytes, last.SnapshotBytes, walBytes)

	before := nodeUploads(t, ctrl, "edge-1", "cam0/mc-1")
	if len(before) != uploads {
		t.Fatalf("ledger holds %d uploads, %d were sent", len(before), uploads)
	}
	ctrl.Crash()
	ctrl, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed no wal: %+v", stats)
	}
	if after := nodeUploads(t, ctrl, "edge-1", "cam0/mc-1"); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered ledger holds %d uploads and differs from the %d before the crash", len(after), len(before))
	}
}

// lockedBuffer is a log sink the shard goroutines and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) count(s string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Count(b.buf.String(), s)
}

// failedSnapshots parses the records, wal_bytes and encoded
// attributes of every "wal snapshot failed" line in logs.
func failedSnapshots(t *testing.T, logs *lockedBuffer) (records []int, walBytes, encoded []int64) {
	t.Helper()
	logs.mu.Lock()
	defer logs.mu.Unlock()
	for _, line := range strings.Split(logs.buf.String(), "\n") {
		if !strings.Contains(line, "wal snapshot failed") {
			continue
		}
		var r int
		var w, e int64
		at := strings.Index(line, " records=")
		if at < 0 {
			t.Fatalf("failure log line without its counts: %s", line)
		}
		if _, err := fmt.Sscanf(line[at:], " records=%d wal_bytes=%d encoded=%d", &r, &w, &e); err != nil {
			t.Fatalf("failure log line %q: %v", line, err)
		}
		records, walBytes, encoded = append(records, r), append(walBytes, w), append(encoded, e)
	}
	return records, walBytes, encoded
}

// TestFailedCompactionRetriesAfterSnapshotEvery removes a shard's
// directory under its open log, so every compaction fails while appends
// still land, and drives 200 uploads at SnapshotEvery 8. A failed
// compaction is retried only once SnapshotEvery more records and as
// many more wal bytes as the failed attempt encoded have been
// appended, and at the first commit where both hold; so the bytes that
// failed attempts encode stay within a small multiple of the wal bytes
// appended, where a retry every SnapshotEvery records would re-encode the
// growing state dozens of times. Once the directory is back, a retry
// succeeds and recovery from it finds every upload.
func TestFailedCompactionRetriesAfterSnapshotEvery(t *testing.T) {
	const uploads, every = 200, 8
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	root := t.TempDir()
	cfg := ControllerConfig{
		Timeout: 10 * time.Second, StateDir: root, SnapshotEvery: every,
		Log: slog.New(slog.NewTextHandler(&logs, nil)),
	}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }()
	edge := dialScripted(t, n, Hello{Node: "edge-1"})
	dir := filepath.Join(root, shardDirName(0))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= uploads; seq++ {
		edge.upload(seq, 10*int(seq))
	}
	sh := ctrl.shards[0]
	sh.mu.Lock()
	walSize := sh.wal.Size()
	sh.mu.Unlock()
	records, walBytes, encoded := failedSnapshots(t, &logs)
	if len(records) < 2 {
		t.Fatalf("%d failed compactions over %d uploads, want at least 2 to check the retry rule", len(records), uploads)
	}
	if records[0] != every {
		t.Fatalf("first compaction attempted after %d records, want %d", records[0], every)
	}
	// An upload record takes under maxRecord bytes framed in the wal: a
	// retry one commit later than the byte rule allows would show as a
	// byte gap that much beyond what the failure encoded.
	const maxRecord = 64
	var spent int64
	for i := range records {
		spent += encoded[i]
		if i == 0 {
			continue
		}
		recGap, byteGap := records[i]-records[i-1], walBytes[i]-walBytes[i-1]
		if recGap < every || byteGap < encoded[i-1] {
			t.Fatalf("attempt %d came %d records and %d wal bytes after one that encoded %d bytes, want at least %d records and %d bytes", i, recGap, byteGap, encoded[i-1], every, encoded[i-1])
		}
		if recGap != every && byteGap-encoded[i-1] >= maxRecord {
			t.Fatalf("attempt %d came %d records and %d wal bytes after one that encoded %d bytes, later than the first commit that allowed it", i, recGap, byteGap, encoded[i-1])
		}
	}
	t.Logf("%d failed compactions at records %v encoded %d bytes; the wal took %d", len(records), records, spent, walSize)
	// Every attempt but the last is paid for by the wal bytes after it,
	// and the last encodes one state, which here is about as large as
	// the wal: three times the wal bounds them all.
	if spent > 3*walSize {
		t.Fatalf("%d failed compactions encoded %d bytes while the wal took %d, want at most three times the wal", len(records), spent, walSize)
	}
	if st := ctrl.ShardStats()[0]; st.Snapshots != 1 {
		t.Fatalf("%d snapshots written, want only the one at open", st.Snapshots)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sent := uint64(uploads)
	for ctrl.ShardStats()[0].Snapshots != 2 {
		if sent == 2*uploads {
			t.Fatalf("no compaction succeeded in the %d uploads after the directory came back", uploads)
		}
		sent++
		edge.upload(sent, 10*int(sent))
	}
	before := nodeUploads(t, ctrl, "edge-1", "cam0/mc-1")
	if len(before) != int(sent) {
		t.Fatalf("ledger holds %d uploads, %d were sent", len(before), sent)
	}
	ctrl.Crash()
	if ctrl, _, err = OpenController(cfg); err != nil {
		t.Fatal(err)
	}
	if after := nodeUploads(t, ctrl, "edge-1", "cam0/mc-1"); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered ledger holds %d uploads and differs from the %d before the crash", len(after), len(before))
	}
}

// TestFailedAppendFencesShard: the first failed wal append fences its
// shard until reopen, and nothing after it is logged or applied. A
// deploy and an undeploy return the append error, not ErrDeferred, and
// push nothing; the intent and its generation stand; an upload is
// neither accounted nor acked; a drift freeze is skipped; a fresh hello
// that would reset the node's sequence space is refused; and the wal
// takes no further append. A crash and reopen then recover exactly the
// state from before the failure, and the reopened shard logs again.
func TestFailedAppendFencesShard(t *testing.T) {
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{Timeout: 5 * time.Second, StateDir: t.TempDir(), SnapshotEvery: -1, Drift: DriftConfig{MinCount: 8}}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }()
	const node = "edge-1"
	edge := dialScripted(t, n, Hello{Node: node})
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-1", 11, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	edge.upload(1, 0)
	edge.upload(2, 10)
	before := captureLogged(ctrl)
	intent, gen := ctrl.Intent(node)
	pushes := edge.pushes.Load()

	sh := ctrl.shards[ctrl.ShardOf(node)]
	sh.mu.Lock()
	sh.wal.Abandon() // every append from here on fails
	sh.mu.Unlock()
	fenced := func(op string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrDeferred) || !errors.Is(err, os.ErrClosed) {
			t.Fatalf("%s on a fenced shard: %v, want the append error", op, err)
		}
	}
	fenced("deploy", ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-2", 12, 1), 0.5))
	appends := ctrl.ShardStats()[sh.id].WALAppend.Count
	fenced("undeploy", ctrl.Undeploy(node, "cam0", "mc-1"))
	if got, g := ctrl.Intent(node); !reflect.DeepEqual(got, intent) || g != gen {
		t.Fatalf("intent %v@%d after the failed append, want %v@%d", got, g, intent, gen)
	}
	if got := edge.pushes.Load(); got != pushes {
		t.Fatalf("%d requests pushed to the node after the failed append", got-pushes)
	}

	// A retransmission is acked before any commit, so the ack for the
	// one sent behind a fresh upload arriving first shows that the fresh
	// upload got none. The same barrier follows the heartbeat that
	// reaches MinCount.
	edge.send(transport.KindUpload, transport.UploadRecord{MCName: "cam0/mc-1", EventID: 3, Start: 20, End: 24, Bits: 1003, Final: true, Seq: 3})
	edge.upload(2, 10)
	edge.send(transport.KindHeartbeat, scoreBeat(alt(0.2, 0.7, 16)))
	edge.upload(2, 10)
	if got := nodeUploads(t, ctrl, node, "cam0/mc-1"); len(got) != 2 {
		t.Fatalf("ledger holds %d uploads, want the 2 from before the failed append", len(got))
	}
	if reps := driftReports(ctrl); len(reps) != 1 || reps[0].Total != 16 || reps[0].Baseline != 0 {
		t.Fatalf("drift after a heartbeat on a fenced shard: %+v, want 16 scores and no frozen baseline", reps)
	}

	edge.conn.Close()
	conn, err := n.Dial(node, "dc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRecord(conn, transport.KindHello, Hello{Node: node}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.ReadHeader(conn); err == nil {
		t.Fatal("a fresh hello whose sequence reset cannot be logged was accepted")
	}
	if got := ctrl.ShardStats()[sh.id].WALAppend.Count; got != appends {
		t.Fatalf("the wal took %d appends after the failed one", got-appends)
	}

	ctrl.Crash()
	if ctrl, _, err = OpenController(cfg); err != nil {
		t.Fatal(err)
	}
	if got := captureLogged(ctrl); !reflect.DeepEqual(got, before) {
		t.Fatalf("recovered %v\nwant the state before the failed append %v", got.Intents, before.Intents)
	}
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-2", 12, 1), 0.5); !errors.Is(err, ErrDeferred) {
		t.Fatalf("deploy after reopen: %v, want it recorded for the offline node", err)
	}
	if _, g := ctrl.Intent(node); g != gen+1 {
		t.Fatalf("generation %d after reopen and deploy, want %d", g, gen+1)
	}
}

// TestWALAppendObserved: every committed upload is timed into its
// shard's WAL-append histogram, and committing an upload — encode,
// append, timing — allocates nothing beyond the ledger's own growth.
func TestWALAppendObserved(t *testing.T) {
	const uploads = 40
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _, err := OpenController(ControllerConfig{Timeout: 10 * time.Second, StateDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer ctrl.Close()
	edge := dialScripted(t, n, Hello{Node: "edge-1"})
	for seq := uint64(1); seq <= uploads; seq++ {
		edge.upload(seq, 10*int(seq))
	}
	sh := ctrl.shards[ctrl.ShardOf("edge-1")]
	if got := ctrl.ShardStats()[sh.id].WALAppend.Count; got < uploads {
		t.Fatalf("WAL-append histogram counted %d appends, %d uploads were committed", got, uploads)
	}

	// The same commits, driven straight into the shard: the ledger's
	// amortized growth rounds away, so anything left is per commit.
	s := newSession(99, Hello{Node: "edge-2"}, nil, 0, 0, nil, nil, nil)
	sh.mu.Lock()
	sh.node("edge-2")
	sh.mu.Unlock()
	seq := uint64(0)
	before := sh.walAppend.Count()
	allocs := testing.AllocsPerRun(500, func() {
		seq++
		if accept, ack := sh.acceptUpload(s, transport.UploadRecord{MCName: "cam0/mc-1", EventID: seq, Start: 1, End: 2, Bits: 8, Seq: seq}); !accept || !ack {
			t.Fatalf("upload %d: accept %v, ack %v", seq, accept, ack)
		}
	})
	if allocs != 0 {
		t.Fatalf("committing an upload allocates %v objects, want 0", allocs)
	}
	if got := sh.walAppend.Count() - before; got != seq {
		t.Fatalf("%d commits observed %d appends", seq, got)
	}
}

// TestOversizeRecordDoesNotFenceShard: a deploy whose intent record is
// too large to frame is refused with walog.ErrTooLarge, recorded
// nowhere and pushed to no one, and its shard goes on: nothing was
// written, so nothing is torn. A normal deploy on the same shard is
// then logged and pushed, an upload is acked, and both survive a crash.
func TestOversizeRecordDoesNotFenceShard(t *testing.T) {
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{Timeout: 5 * time.Second, StateDir: t.TempDir()}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }()
	const node = "edge-1"
	edge := dialScripted(t, n, Hello{Node: node})

	mc := saveVersionedMC(t, "mc-big", 11, 1)
	huge := append(mc, make([]byte, walog.MaxRecordBytes+1-len(mc))...)
	err = ctrl.Deploy(node, "cam0", huge, 0.5)
	if !errors.Is(err, walog.ErrTooLarge) || strings.Contains(err.Error(), "fenced") {
		t.Fatalf("deploy of a %d-byte MC: %v, want walog.ErrTooLarge without a fence", len(huge), err)
	}
	if _, ok := ctrl.IntentMCBytes(node, "cam0", "mc-big"); ok || edge.pushes.Load() != 0 {
		t.Fatalf("the refused deploy was recorded or pushed (%d pushes)", edge.pushes.Load())
	}
	small := saveVersionedMC(t, "mc-1", 12, 1)
	if err := ctrl.Deploy(node, "cam0", small, 0.5); err != nil {
		t.Fatalf("deploy on the same shard after the refused one: %v", err)
	}
	edge.upload(1, 0)

	ctrl.Crash()
	if ctrl, _, err = OpenController(cfg); err != nil {
		t.Fatal(err)
	}
	if got, ok := ctrl.IntentMCBytes(node, "cam0", "mc-1"); !ok || !bytes.Equal(got, small) {
		t.Fatal("the deploy after the refused one was not recovered")
	}
	if ups := nodeUploads(t, ctrl, node, "cam0/mc-1"); len(ups) != 1 {
		t.Fatalf("recovered %d uploads, want the acked one", len(ups))
	}
}

// TestStateOverRecordLimitCompacts: a shard whose state outgrows one
// record's limit — three nodes holding about 5.5 MiB of intent each —
// still compacts, since a snapshot is a run of per-node records with no
// limit of its own. Close writes the final snapshot, so the reopen
// replays no record after it, and every intent comes back byte for
// byte.
func TestStateOverRecordLimitCompacts(t *testing.T) {
	var logs lockedBuffer
	cfg := ControllerConfig{Timeout: time.Second, StateDir: t.TempDir(), Log: slog.New(slog.NewTextHandler(&logs, nil))}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcs := map[string][]byte{}
	for i, node := range []string{"edge-1", "edge-2", "edge-3"} {
		mc := saveVersionedMC(t, "mc-1", int64(11+i), 1)
		mcs[node] = append(mc, bytes.Repeat([]byte{byte(i + 1)}, 11<<19-len(mc))...)
		if err := ctrl.Deploy(node, "cam0", mcs[node], 0.5); !errors.Is(err, ErrDeferred) {
			t.Fatalf("deploy to offline %s: %v, want ErrDeferred", node, err)
		}
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if failed := logs.count("snapshot failed"); failed != 0 {
		t.Fatalf("%d snapshots failed:\n%s", failed, logs.buf.String())
	}
	ctrl, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if stats.RecordsReplayed != 0 || stats.SnapshotBytes < 3*11<<19 {
		t.Fatalf("reopen after Close replayed %d records over a %d-byte snapshot, want 0 over all three intents", stats.RecordsReplayed, stats.SnapshotBytes)
	}
	for node, want := range mcs {
		if got, ok := ctrl.IntentMCBytes(node, "cam0", "mc-1"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered intent of %d bytes, want the %d deployed", node, len(got), len(want))
		}
	}
}
