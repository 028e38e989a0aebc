package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/walog"
)

// scriptedEdge is a hand-driven edge session for the replay test: it
// speaks the wire protocol directly, so the test decides every upload
// sequence number, every heartbeat sketch, and whether a deploy is
// acked or refused — each WAL record kind on demand, in a fixed order.
type scriptedEdge struct {
	t    *testing.T
	conn net.Conn
	wmu  sync.Mutex
	// refuse makes the edge answer deploy requests with an error ack.
	refuse atomic.Bool
	// pushes counts the deploy and undeploy requests received.
	pushes atomic.Int32
	// acks delivers upload acks.
	acks chan uint64
}

// dialScripted opens a session for hello.Node over the simnet and
// starts answering the controller's requests.
func dialScripted(t *testing.T, n *simnet.Network, hello Hello) *scriptedEdge {
	t.Helper()
	conn, err := n.Dial(hello.Node, "dc")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered past the most upload acks any one session of the script
	// receives, so the reader never blocks on a test that stopped
	// listening.
	e := &scriptedEdge{t: t, conn: conn, acks: make(chan uint64, 16)}
	hello.Streams = []StreamInfo{{Name: "cam0", Width: 48, Height: 27, FPS: 15}}
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		t.Fatal(err)
	}
	e.send(transport.KindHello, hello)
	if _, err := transport.ReadHeader(conn); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := transport.ReadRecord(conn); err != nil || kind != transport.KindWelcome {
		t.Fatalf("%s: no welcome: kind %d, err %v", hello.Node, kind, err)
	}
	go e.serve()
	return e
}

// send writes one record from the test goroutine.
func (e *scriptedEdge) send(kind uint8, payload any) {
	e.t.Helper()
	if err := e.write(kind, payload); err != nil {
		e.t.Fatalf("scripted edge write (kind %d): %v", kind, err)
	}
}

func (e *scriptedEdge) write(kind uint8, payload any) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return transport.WriteRecord(e.conn, kind, payload)
}

// serve answers the controller until the connection ends. A failed
// ack write means the script closed the connection; the next read ends
// the loop.
func (e *scriptedEdge) serve() {
	for {
		kind, body, err := transport.ReadRecord(e.conn)
		if err != nil {
			return
		}
		switch kind {
		case transport.KindDeploy:
			e.pushes.Add(1)
			var req DeployRequest
			if transport.DecodeRecord(body, &req) != nil {
				return
			}
			ack := Ack{Seq: req.Seq}
			if e.refuse.Load() {
				ack.Err = "scripted refusal"
			}
			_ = e.write(transport.KindAck, ack)
		case transport.KindUndeploy:
			e.pushes.Add(1)
			var req UndeployRequest
			if transport.DecodeRecord(body, &req) != nil {
				return
			}
			_ = e.write(transport.KindAck, Ack{Seq: req.Seq})
		case transport.KindUploadAck:
			var ack UploadAck
			if transport.DecodeRecord(body, &ack) != nil {
				return
			}
			e.acks <- ack.Seq
		}
	}
}

// upload sends one upload and waits for the controller's ack — which
// arrives for fresh and duplicate sequence numbers alike.
func (e *scriptedEdge) upload(seq uint64, start int) {
	e.t.Helper()
	e.send(transport.KindUpload, transport.UploadRecord{
		MCName: "cam0/mc-1", EventID: seq, Start: start, End: start + 4, Bits: 1000 + int64(seq), Final: true, Seq: seq,
	})
	select {
	case got := <-e.acks:
		if got != seq {
			e.t.Fatalf("ack for upload %d, sent %d", got, seq)
		}
	case <-time.After(10 * time.Second):
		e.t.Fatalf("upload %d never acked", seq)
	}
}

// scoreBeat is a heartbeat carrying mc-1's sketch (model version 1).
func scoreBeat(scores []float64) Heartbeat {
	return Heartbeat{
		Scores:        map[string]map[string]obs.SketchSnapshot{"cam0": {"mc-1": cumSketch(scores)}},
		ScoreVersions: map[string]map[string]uint64{"cam0": {"mc-1": 1}},
	}
}

// loggedState is everything the WAL is answerable for, captured the
// same way before a crash and after recovery.
type loggedState struct {
	Nodes map[string]nodeState
	// Shards lists, per shard, the names of the nodes it holds, sorted.
	Shards  [][]string
	Intents map[string]string
}

func captureLogged(c *Controller) loggedState {
	ls := loggedState{Nodes: map[string]nodeState{}, Intents: map[string]string{}}
	for _, sh := range c.shards {
		sh.mu.Lock()
		ls.Shards = append(ls.Shards, slices.Sorted(maps.Keys(sh.Nodes)))
		for name, st := range sh.Nodes {
			// Soft state is kept by the observers from heartbeats and
			// session events, never logged (see persist.go): zero it on
			// copies, leaving the live records alone.
			ns := *st
			ns.Evicted, ns.Reconnects = 0, 0
			ns.Drift = maps.Clone(st.Drift)
			for k, d := range ns.Drift {
				logged := *d
				logged.Prev, logged.Last, logged.PSI, logged.KS, logged.Windows, logged.Drifted = obs.SketchSnapshot{}, obs.SketchSnapshot{}, 0, 0, 0, false
				ns.Drift[k] = &logged
			}
			ls.Nodes[name] = ns
		}
		sh.mu.Unlock()
	}
	for name := range ls.Nodes {
		intent, gen := c.Intent(name)
		ls.Intents[name] = fmt.Sprintf("%v@%d", intent, gen)
	}
	return ls
}

// withoutMCBytes renders a node for a failure message: serialized MCs
// are kilobytes of gob, reduced here to their first byte, and the
// drift records are printed by value, not by address.
func withoutMCBytes(ns nodeState) string {
	intent := map[string]map[string]deployment{}
	for stream, mcs := range ns.Intent {
		intent[stream] = map[string]deployment{}
		for name, dep := range mcs {
			dep.MC = dep.MC[:1]
			intent[stream][name] = dep
		}
	}
	drift := map[string]driftState{}
	for k, d := range ns.Drift {
		drift[k] = *d
	}
	return fmt.Sprintf("gen=%d lastSeq=%d rehomed=%d intent=%+v drift=%+v dc=%+v",
		ns.Gen, ns.LastSeq, ns.Rehomed, intent, drift, ns.DC)
}

// nodeNames returns count node names (prefix-N) whose owner changes
// (moving true) or stays the same (moving false) when a 2-shard ring
// grows to 3. A node that moves lands on the new shard 2.
func nodeNames(prefix string, moving bool, count int) []string {
	r2, r3 := newRing(2), newRing(3)
	var names []string
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if (r2.owner(name) != r3.owner(name)) == moving {
			names = append(names, name)
		}
	}
	return names
}

// TestReplayEqualsLive drives one scripted sequence that emits every
// WAL record kind, captures the logged state, crashes the controller,
// recovers it, and requires the recovered state to equal the live one
// field for field. The sequence opens with a grow and a shrink by
// restart, whose recoveries compact; after them compaction is off and
// everything else recovers by pure WAL replay, so any mutation the live
// path makes that apply does not (or the other way round) shows up as a
// difference. The second run forces a snapshot mid-sequence so the same
// holds for snapshot + tail.
func TestReplayEqualsLive(t *testing.T) {
	for _, midSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", midSnapshot), func(t *testing.T) {
			testReplayEqualsLive(t, midSnapshot)
		})
	}
}

func testReplayEqualsLive(t *testing.T, midSnapshot bool) {
	n := simnet.New(chaosSeed)
	cfg := ControllerConfig{
		Timeout:       5 * time.Second,
		StateDir:      t.TempDir(),
		SnapshotEvery: -1,
		Drift:         DriftConfig{MinCount: 8},
	}
	var ctrl *Controller
	// open (re)starts the controller at a shard count on a new listener.
	open := func(shards int) {
		t.Helper()
		ln, err := n.Listen("dc")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = shards
		if ctrl, _, err = OpenController(cfg); err != nil {
			t.Fatal(err)
		}
		ctrl.Serve(ln)
	}
	open(2)
	defer func() { ctrl.Crash() }() // a no-op after the scripted crash

	// ---- Re-shard by restart: a grow (move-in), a ledger on the new
	// shard, a shrink (move-in back, ledger included). It comes first
	// because recovery compacts every log: what the rest of the script
	// logs then stays in the wal the final recovery replays. -----------
	mc1 := saveVersionedMC(t, "mc-1", 11, 1)
	movers := nodeNames("ghost", true, 2)
	for _, name := range movers {
		if err := ctrl.Deploy(name, "cam0", mc1, 0.5); !errors.Is(err, ErrDeferred) {
			t.Fatalf("offline deploy to %s: %v", name, err)
		}
	}
	ctrl.Crash()
	open(3)
	late := dialScripted(t, n, Hello{Node: movers[0], DeployGen: 1, Deployed: map[string][]string{"cam0": {"mc-1"}}})
	late.upload(1, 0)
	late.upload(2, 10)
	late.conn.Close()
	if stats := ctrl.ShardStats(); stats[2].Uploads != 2 {
		t.Fatalf("shard 2 ledger before the shrink: %+v", stats[2])
	}
	ctrl.Crash()
	open(2)

	// The scripted node is one the re-shards left in place.
	node := nodeNames("edge", false, 1)[0]
	edge := dialScripted(t, n, Hello{Node: node})
	wantGen := func(want uint64) {
		t.Helper()
		if _, gen := ctrl.Intent(node); gen != want {
			t.Fatalf("deploy generation %d, want %d", gen, want)
		}
	}

	// ---- Intent: deploy, both edge-rejected rollbacks, undeploy. -----
	if err := ctrl.Deploy(node, "cam0", mc1, 0.5); err != nil {
		t.Fatal(err)
	}
	edge.refuse.Store(true)
	// A new name refused: rolled back to no deployment at all.
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-x", 12, 1), 0.5); !errors.Is(err, errRejected) {
		t.Fatalf("refused deploy: %v", err)
	}
	// A replacement for mc-1 refused: rolled back to the previous bytes.
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-1", 13, 9), 0.25); !errors.Is(err, errRejected) {
		t.Fatalf("refused redeploy: %v", err)
	}
	edge.refuse.Store(false)
	if got, _ := ctrl.IntentMCBytes(node, "cam0", "mc-1"); !bytes.Equal(got, mc1) {
		t.Fatal("rollback did not restore the previous deployment")
	}
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-2", 14, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Undeploy(node, "cam0", "mc-2"); err != nil {
		t.Fatal(err)
	}
	wantGen(7)

	// ---- Ledger: fresh uploads and a duplicate sequence number. ------
	edge.upload(1, 0)
	edge.upload(2, 10)
	edge.upload(2, 10) // retransmission: acked, not accounted
	edge.upload(3, 20)

	// ---- Drift: the first heartbeat at MinCount freezes a baseline. --
	edge.send(transport.KindHeartbeat, scoreBeat(alt(0.2, 0.7, 16)))
	waitFor(t, "drift baseline frozen", func() bool {
		reps := driftReports(ctrl)
		return len(reps) == 1 && reps[0].Baseline == 16
	})

	// Half way: everything above recovers from the snapshot, everything
	// below from the log.
	if midSnapshot {
		for _, sh := range ctrl.shards {
			sh.mu.Lock()
			err := sh.snapshotLocked()
			sh.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-3", 15, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	wantGen(8)

	// ---- A fresh (non-resume) hello resets the sequence space. -------
	edge.conn.Close()
	edge = dialScripted(t, n, Hello{
		Node: node, DeployGen: 8,
		Deployed: map[string][]string{"cam0": {"mc-1", "mc-3"}},
	})
	edge.upload(1, 30) // a new incarnation's first upload, not a duplicate
	edge.conn.Close()

	// ---- Crash, recover from the log, compare. -----------------------
	live := captureLogged(ctrl)
	// The shrinking restart moved the mover back home, its 2 uploads
	// with it.
	mover := live.Nodes[movers[0]]
	home := newRing(2).owner(movers[0])
	if uploads, _ := mover.DC.Totals(); !slices.Contains(live.Shards[home], movers[0]) || mover.Rehomed != 2 || uploads != 2 ||
		live.Nodes[node].LastSeq != 1 {
		t.Fatalf("script did not reach the state it was written for: shards %v, mover %s", live.Shards, withoutMCBytes(mover))
	}
	ctrl.Crash()
	ctrl2, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ctrl2.Close()
	if stats.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed no wal records: %+v", stats)
	}
	recovered := captureLogged(ctrl2)
	if !reflect.DeepEqual(live, recovered) {
		for name, want := range live.Nodes {
			if got := recovered.Nodes[name]; !reflect.DeepEqual(want, got) {
				t.Errorf("node %s:\n live      %+v\n recovered %+v", name, withoutMCBytes(want), withoutMCBytes(got))
			}
		}
		t.Errorf("shards:\n live      %+v\n recovered %+v", live.Shards, recovered.Shards)
		t.Errorf("intents:\n live      %v\n recovered %v", live.Intents, recovered.Intents)
		t.Fatal("replayed state differs from the live state it was logged from")
	}
}

// liveKinds are the record kinds the current format writes; 2, 4, 5,
// 6, 8, 9, 10, 11, 12 and 14 are retired (see the kind constants).
var liveKinds = []int{1, 3, 7, 13, 15}

// TestRecordKindsRoundTrip pins the two statements of the kind-to-type
// mapping against each other: the record a kind decodes into reports
// that kind, for every live kind, and nothing else decodes.
func TestRecordKindsRoundTrip(t *testing.T) {
	for kind := 0; kind < 256; kind++ {
		rec, err := decodeRecord(uint8(kind), nil)
		if !slices.Contains(liveKinds, kind) {
			if err == nil || !strings.Contains(err.Error(), "unknown wal record kind") {
				t.Errorf("kind %d decoded to %T (err %v), want the unknown-kind error", kind, rec, err)
			}
			continue
		}
		// An empty payload fails to decode, past the kind lookup.
		if err == nil || strings.Contains(err.Error(), "unknown wal record kind") {
			t.Errorf("kind %d: err %v, want a decode error", kind, err)
		}
		if got := newRecord[kind]().kind(); int(got) != kind {
			t.Errorf("kind %d decodes into a record that reports kind %d", kind, got)
		}
	}
}

// TestReplayRefusesRetiredKind pins the reserved record numbers: a log
// still holding a kind-2 record (the gob-encoded upload that kind 13's
// binary layout replaced), a kind-10 record (an upload over the retired
// one-way protocol), a kind-4, 5 or 6 record (a retired canary's start,
// install epoch or verdict), a kind-11 record (a move-in whose node
// record still carried canary state) or a kind-14 record (a gob
// move-in, replaced by kind 15's binary layout) fails recovery with
// the unknown-kind error rather than being skipped or misread.
func TestReplayRefusesRetiredKind(t *testing.T) {
	up := transport.UploadRecord{MCName: "cam0/mc-1", EventID: 1, End: 4, Bits: 100, Final: true, Seq: 1}
	for _, tc := range []struct {
		kind   uint8
		record any
	}{
		{2, struct {
			Node string
			Rec  transport.UploadRecord
		}{"edge-1", up}},
		{10, struct{ Rec transport.UploadRecord }{up}},
		{4, struct {
			Node, Stream, Name string
			MC                 []byte
			Threshold          float32
			Version            uint64
		}{"edge-1", "cam0", "mc-1", []byte{1}, 0.5, 2}},
		{5, struct {
			Node, Stream, Name string
			Epoch              uint64
		}{"edge-1", "cam0", "mc-1", 2}},
		{6, struct {
			Node, Stream, Name string
			Version            uint64
			Outcome            string
		}{"edge-1", "cam0", "mc-1", 2, "promoted"}},
		{11, struct {
			Name string
			Node struct{ Gen, LastSeq uint64 }
		}{"edge-1", struct{ Gen, LastSeq uint64 }{3, 7}}},
		{14, struct {
			Name string
			Node struct{ Gen, LastSeq uint64 }
		}{"edge-1", struct{ Gen, LastSeq uint64 }{3, 7}}},
	} {
		t.Run(fmt.Sprintf("kind=%d", tc.kind), func(t *testing.T) {
			dir := t.TempDir()
			l, err := walog.Open(filepath.Join(dir, shardDirName(0)))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := encodeGob(tc.record)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(tc.kind, payload); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, err = OpenController(ControllerConfig{StateDir: dir})
			if want := fmt.Sprintf("unknown wal record kind %d", tc.kind); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("recovery over a kind-%d record: %v", tc.kind, err)
			}
		})
	}
}
