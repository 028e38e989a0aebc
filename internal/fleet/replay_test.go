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
	// acks delivers upload acks; deploys every deploy request seen.
	acks    chan uint64
	mu      sync.Mutex
	deploys []DeployRequest
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
			var req DeployRequest
			if transport.DecodeRecord(body, &req) != nil {
				return
			}
			e.mu.Lock()
			e.deploys = append(e.deploys, req)
			e.mu.Unlock()
			ack := Ack{Seq: req.Seq}
			if e.refuse.Load() {
				ack.Err = "scripted refusal"
			}
			_ = e.write(transport.KindAck, ack)
		case transport.KindUndeploy:
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

// sawDeploy reports whether the controller pushed a deploy matching f.
func (e *scriptedEdge) sawDeploy(f func(DeployRequest) bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, req := range e.deploys {
		if f(req) {
			return true
		}
	}
	return false
}

// canaryBeat is a heartbeat carrying mc-1's live sketch (model version
// 1) and, when shadow is non-nil, the candidate's under an install
// epoch.
func canaryBeat(live, shadow []float64, epoch uint64) Heartbeat {
	hb := Heartbeat{
		Scores:        map[string]map[string]obs.SketchSnapshot{"cam0": {"mc-1": cumSketch(live)}},
		ScoreVersions: map[string]map[string]uint64{"cam0": {"mc-1": 1}},
	}
	if shadow != nil {
		hb.ShadowScores = map[string]map[string]obs.SketchSnapshot{"cam0": {"mc-1": cumSketch(shadow)}}
		hb.ShadowVersions = map[string]map[string]uint64{"cam0": {"mc-1": 2}}
		hb.ShadowEpochs = map[string]map[string]uint64{"cam0": {"mc-1": epoch}}
	}
	return hb
}

// loggedState is everything the WAL is answerable for, captured the
// same way before a crash and after recovery.
type loggedState struct {
	Nodes map[string]nodeState
	// Shards lists, per shard, the names of the nodes it holds, sorted.
	Shards   [][]string
	Canaries []CanaryReport
	Intents  map[string]string
}

func captureLogged(c *Controller) loggedState {
	ls := loggedState{Nodes: map[string]nodeState{}, Intents: map[string]string{}}
	for _, sh := range c.snapshotShards() {
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
			ns.Canary = maps.Clone(st.Canary)
			for k, cs := range ns.Canary {
				logged := *cs
				logged.SeenEpoch = 0
				logged.BaseLive, logged.BaseShadow = obs.SketchSnapshot{}, obs.SketchSnapshot{}
				logged.LastLive, logged.LastShadow = obs.SketchSnapshot{}, obs.SketchSnapshot{}
				ns.Canary[k] = &logged
			}
			ls.Nodes[name] = ns
		}
		sh.mu.Unlock()
	}
	ls.Canaries = c.CanaryReports()
	for name := range ls.Nodes {
		intent, gen := c.Intent(name)
		ls.Intents[name] = fmt.Sprintf("%v@%d", intent, gen)
	}
	return ls
}

// withoutMCBytes renders a node for a failure message: serialized MCs
// are kilobytes of gob, reduced here to their first byte, and the
// drift and canary records are printed by value, not by address.
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
	canary := map[string]canaryState{}
	for k, cs := range ns.Canary {
		c := *cs
		c.MC = c.MC[:1]
		canary[k] = c
	}
	return fmt.Sprintf("gen=%d lastSeq=%d rehomed=%d intent=%+v drift=%+v canary=%+v dc=%+v",
		ns.Gen, ns.LastSeq, ns.Rehomed, intent, drift, canary, ns.DC)
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
// field for field. With compaction off recovery is pure WAL replay, so
// any mutation the live path makes that apply does not (or the other
// way round) shows up as a difference; the second run forces a
// snapshot mid-sequence so the same holds for snapshot + tail.
func TestReplayEqualsLive(t *testing.T) {
	for _, midSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", midSnapshot), func(t *testing.T) {
			testReplayEqualsLive(t, midSnapshot)
		})
	}
}

func testReplayEqualsLive(t *testing.T, midSnapshot bool) {
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Timeout:       5 * time.Second,
		Shards:        2,
		StateDir:      t.TempDir(),
		SnapshotEvery: -1,
		Drift:         DriftConfig{MinCount: 8},
		Canary:        CanaryConfig{Window: 8},
	}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }() // a no-op after the scripted crash

	// The scripted node stays put through the resizes below: a move-in
	// carries a node's whole state, and would paper over whatever the
	// records before it failed to replay.
	node := nodeNames("edge", false, 1)[0]
	mc1 := saveVersionedMC(t, "mc-1", 11, 1)
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
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-x", 12, 1), 0.5); !errors.Is(err, ErrRejected) {
		t.Fatalf("refused deploy: %v", err)
	}
	// A replacement for mc-1 refused: rolled back to the previous bytes.
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-1", 13, 9), 0.25); !errors.Is(err, ErrRejected) {
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
	edge.send(transport.KindHeartbeat, canaryBeat(alt(0.2, 0.7, 16), nil, 0))
	waitFor(t, "drift baseline frozen", func() bool {
		reps := ctrl.DriftReports()
		return len(reps) == 1 && reps[0].Baseline == 16
	})

	// ---- Canary: start, reconnect (epoch bump), verdict. -------------
	if err := ctrl.StartCanary(node, "cam0", saveVersionedMC(t, "mc-1", 11, 2), 0.5); err != nil {
		t.Fatal(err)
	}
	edge.send(transport.KindHeartbeat, canaryBeat(alt(0.2, 0.7, 16), alt(0.3, 0.8, 4), 1))
	waitFor(t, "canary window anchored", func() bool {
		reps := ctrl.CanaryReports()
		return len(reps) == 1 && reps[0].Heartbeats == 1
	})
	edge.conn.Close()
	edge = dialScripted(t, n, Hello{
		Node: node, Resume: true, DeployGen: 7,
		Deployed: map[string][]string{"cam0": {"mc-1"}},
		Shadows:  map[string][]string{"cam0": {"mc-1"}},
	})
	waitFor(t, "shadow re-pushed under epoch 2", func() bool {
		return edge.sawDeploy(func(r DeployRequest) bool { return r.Canary && r.Epoch == 2 })
	})
	// The reinstalled shadow reports a fresh sketch; both windows
	// re-anchor on it, fill with matched behaviour, and promote.
	edge.send(transport.KindHeartbeat, canaryBeat(alt(0.2, 0.7, 24), alt(0.3, 0.8, 4), 2))
	edge.send(transport.KindHeartbeat, canaryBeat(alt(0.2, 0.7, 32), alt(0.3, 0.8, 12), 2))
	waitFor(t, "canary promoted and swapped in", func() bool {
		reps := ctrl.CanaryReports()
		_, gen := ctrl.Intent(node)
		return len(reps) == 1 && reps[0].State == CanaryPromoted && gen == 8 &&
			edge.sawDeploy(func(r DeployRequest) bool { return r.Promote })
	})
	verdict := ctrl.CanaryReports()[0]
	if verdict.Observations != 12 || verdict.Heartbeats != 3 || verdict.Spread == 0 {
		t.Fatalf("verdict carries no window: %+v", verdict)
	}

	// Half way: everything above recovers from the snapshot (the decided
	// canary's frozen window included), everything below from the log.
	if midSnapshot {
		for _, sh := range ctrl.snapshotShards() {
			sh.mu.Lock()
			err := sh.snapshotLocked()
			sh.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// ---- Canary the edge refuses: started, then removed. -------------
	if err := ctrl.Deploy(node, "cam0", saveVersionedMC(t, "mc-3", 15, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	edge.refuse.Store(true)
	if err := ctrl.StartCanary(node, "cam0", saveVersionedMC(t, "mc-3", 15, 2), 0.5); !errors.Is(err, ErrRejected) {
		t.Fatalf("refused canary: %v", err)
	}
	edge.refuse.Store(false)
	if reps := ctrl.CanaryReports(); len(reps) != 1 {
		t.Fatalf("refused canary still tracked: %+v", reps)
	}

	// ---- A fresh (non-resume) hello resets the sequence space. -------
	edge.conn.Close()
	edge = dialScripted(t, n, Hello{
		Node: node, DeployGen: 9,
		Deployed: map[string][]string{"cam0": {"mc-1", "mc-3"}},
	})
	edge.upload(1, 30) // a new incarnation's first upload, not a duplicate
	edge.conn.Close()

	// ---- Resize: grow (move-in), ledger on the new shard, shrink
	// (move-in back, ledger included). ---------------------------------
	movers := nodeNames("ghost", true, 2)
	for _, name := range movers {
		if err := ctrl.Deploy(name, "cam0", mc1, 0.5); !errors.Is(err, ErrDeferred) {
			t.Fatalf("offline deploy to %s: %v", name, err)
		}
	}
	if moved, err := ctrl.Resize(3); err != nil || moved < len(movers) {
		t.Fatalf("grow moved %d nodes (err %v), want at least %d", moved, err, len(movers))
	}
	late := dialScripted(t, n, Hello{Node: movers[0], DeployGen: 1, Deployed: map[string][]string{"cam0": {"mc-1"}}})
	late.upload(1, 0)
	late.upload(2, 10)
	late.conn.Close()
	if stats := ctrl.ShardStats(); stats[2].Uploads != 2 {
		t.Fatalf("shard 2 ledger before the shrink: %+v", stats[2])
	}
	if _, err := ctrl.Resize(2); err != nil {
		t.Fatal(err)
	}

	// ---- Crash, recover from the log, compare. -----------------------
	live := captureLogged(ctrl)
	// The shrink moved the mover back home, its 2 uploads with it.
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
		t.Errorf("canaries:\n live      %+v\n recovered %+v", live.Canaries, recovered.Canaries)
		t.Errorf("intents:\n live      %v\n recovered %v", live.Intents, recovered.Intents)
		t.Fatal("replayed state differs from the live state it was logged from")
	}
}

// liveKinds are the record kinds the current format writes; 2, 8, 9,
// 10 and 12 are retired (see the kind constants).
var liveKinds = []int{1, 3, 4, 5, 6, 7, 11, 13}

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

// TestReplayRefusesRetiredKind pins the reserved upload record
// numbers: a log still holding a kind-2 record (the gob-encoded upload
// that kind 13's binary layout replaced) or a kind-10 record (an upload
// over the retired one-way protocol) fails recovery with the
// unknown-kind error rather than being skipped or misread.
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
