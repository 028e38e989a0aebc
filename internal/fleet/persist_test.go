package fleet

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
	reflect.TypeFor[canaryState](),
}

// requireFull fails for every field of a durable type reachable from v
// that is unexported (gob would drop it) or zero (a round trip of v
// would not cover it).
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
				t.Errorf("%s is unexported: snapshots would drop it", p)
			case fv.IsZero() || (fv.Kind() == reflect.Map && fv.Len() == 0):
				t.Errorf("%s is zero: give it a value so the round trip covers it", p)
			default:
				requireFull(t, p, fv)
			}
		}
	}
}

// fullState is a shard state in which every field of every durable type
// holds a non-zero value.
func fullState() shardState {
	sk := cumSketch(alt(0.2, 0.7, 16))
	node := core.NewDatacenter()
	node.Receive(core.Upload{MCName: "cam0/mc-1", EventID: 3, Start: 10, End: 14, Bits: 900, Final: true})
	return shardState{
		Nodes: map[string]*nodeState{"edge-1": {
			Intent: map[string]map[string]deployment{"cam0": {"mc-1": {MC: []byte{1, 2, 3}, Threshold: 0.5, Version: 2}}},
			Gen:    4, LastSeq: 9, DC: node, Evicted: 1, Reconnects: 2, Rehomed: 3,
			Drift: map[string]*driftState{"cam0/mc-1": {
				Baseline: sk, BaselineSet: true, Prev: sk, Last: sk, Version: 2,
				PSI: 0.3, KS: 0.4, Windows: 5, Drifted: true,
			}},
			Canary: map[string]*canaryState{"cam0/mc-1": {
				MC: []byte{4, 5}, Threshold: 0.25, Version: 3, IncumbentVersion: 2,
				Epoch: 2, SeenEpoch: 1, BaseLive: sk, BaseShadow: sk, LastLive: sk, LastShadow: sk,
				Heartbeats: 7, Observations: 64, AgreePSI: 0.01, Spread: 0.2, PassDelta: 0.05,
				Outcome: CanaryRolledBack, Reason: "pass-rate gap",
			}},
		}},
	}
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

// TestStateRoundTrip stands in for the field-by-field mirror structs
// snapshots used to have: every durable field must be exported and
// must survive a snapshot and a move-in record unchanged. A field added
// later fails here until fullState gives it a value.
func TestStateRoundTrip(t *testing.T) {
	want := fullState()
	requireFull(t, "shardState", reflect.ValueOf(want))
	if got := snapshotRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot round trip:\n got  %s\n want %s", withoutMCBytes(*got.Nodes["edge-1"]), withoutMCBytes(*want.Nodes["edge-1"]))
	}
	payload, err := encodeGob(&moveInRec{Name: "edge-1", Node: want.Nodes["edge-1"]})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(wrecMoveIn, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.(*moveInRec); got.Name != "edge-1" || !reflect.DeepEqual(got.Node, want.Nodes["edge-1"]) {
		t.Errorf("move-in round trip: %s, want %s", withoutMCBytes(*got.Node), withoutMCBytes(*want.Nodes["edge-1"]))
	}
}

// TestRecoveredEmptyNodeAppliesEveryKind recovers a node whose intent,
// drift, canary and ledger are all empty — the maps a decode can leave
// nil — and applies one record of every live kind to it.
func TestRecoveredEmptyNodeAppliesEveryKind(t *testing.T) {
	sk := cumSketch(alt(0.2, 0.7, 16))
	up := transport.UploadRecord{MCName: "cam0/mc-1", EventID: 1, Start: 0, End: 4, Bits: 100, Final: true, Seq: 1}
	recs := []record{
		&intentRec{Node: "edge-1", Stream: "cam0", Name: "mc-1", MC: []byte{1}, Threshold: 0.5, Version: 1, Gen: 1},
		&seqResetRec{Node: "edge-1"},
		&canaryStartRec{Node: "edge-1", Stream: "cam0", Name: "mc-1", MC: []byte{2}, Threshold: 0.5, Version: 2},
		&canaryEpochRec{Node: "edge-1", Stream: "cam0", Name: "mc-1", Epoch: 2},
		&canaryVerdictRec{Node: "edge-1", Stream: "cam0", Name: "mc-1", Version: 2, Outcome: CanaryPromoted},
		&driftBaselineRec{Node: "edge-1", Key: "cam0/mc-1", Baseline: sk, Version: 1},
		&moveInRec{Name: "edge-1", Node: fullState().Nodes["edge-1"]},
		&uploadRec{Node: "edge-1", Rec: up},
	}
	var kinds []int
	for _, rec := range recs {
		kinds = append(kinds, int(rec.kind()))
		t.Run(fmt.Sprintf("kind=%d", rec.kind()), func(t *testing.T) {
			empty := newShardState()
			empty.node("edge-1")
			st := snapshotRoundTrip(t, empty)
			if n := st.Nodes["edge-1"]; n == nil || n.Intent != nil || n.Drift != nil || n.Canary != nil {
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

// TestOpenRefusesParentFormat writes state directories the way earlier
// formats did — a snapshot of mirror structs and a move-in record
// carrying a mirror of the node; a format-2 snapshot still carrying the
// shard-wide aggregate ledger and folded identities; a fold record —
// with those shapes declared here. Recovery must refuse each with an
// error naming the directory, recover no node, and leave the directory
// as it found it.
func TestOpenRefusesParentFormat(t *testing.T) {
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
		DC         *core.Datacenter
		Uploads    int
		UploadBits int64
		Folded     []uint64
	}
	type format2Fold struct {
		FromID     uint64
		Uploads    int
		UploadBits int64
		DC         *core.Datacenter
	}
	nodeLedger, aggLedger := core.NewDatacenter(), core.NewDatacenter()
	nodeLedger.Receive(core.Upload{MCName: "cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true})
	aggLedger.Receive(core.Upload{MCName: "edge-1/cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true})
	ledger := []parentUpload{{MCName: "cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true}}
	node := parentNode{
		Name: "edge-1", Gen: 1, LastSeq: 1, Rehomed: 1, Uploads: ledger,
		Intent: []parentDeployment{{Stream: "cam0", Name: "mc-1", MC: []byte{1}, Threshold: 0.5, Version: 1}},
	}
	intent, err := encodeGob(&intentRec{Node: "edge-2", Stream: "cam0", Name: "mc-1", MC: []byte{1}, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		snapshot []any // gob-encoded in order; nil: no snapshot
		kind     uint8 // a record appended after the intent record; 0: none
		record   any
		want     string // in the error
	}{
		{name: "snapshot", snapshot: []any{parentShard{Uploads: 1, UploadBits: 100, DC: ledger, Nodes: []parentNode{node}}},
			want: fmt.Sprintf("not in state format %d", stateFormat)},
		{name: "move-in", kind: 8, record: parentMoveIn{Node: node}, want: "unknown wal record kind 8"},
		{name: "format-2", snapshot: []any{2, format2Shard{
			Nodes: map[string]*nodeState{"edge-1": {Gen: 1, LastSeq: 1, DC: nodeLedger}},
			DC:    aggLedger, Uploads: 1, UploadBits: 100, Folded: []uint64{77},
		}}, want: "not in state format 3"},
		{name: "fold", kind: 12, record: format2Fold{FromID: 77, Uploads: 1, UploadBits: 100, DC: aggLedger},
			want: "unknown wal record kind 12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, shardDirName(0))
			l, err := walog.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.snapshot != nil {
				payload, err := encodeGob(tc.snapshot...)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.WriteSnapshot(payload); err != nil {
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
	sh := ctrl.snapshotShards()[0]
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
