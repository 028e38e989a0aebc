package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/simnet"
)

// saveVersionedMC is saveMC with an explicit model version, for
// asserting version monotonicity across restarts.
func saveVersionedMC(t *testing.T, name string, seed int64, version uint64) []byte {
	t.Helper()
	mc, err := filter.NewMC(filter.Spec{Name: name, Arch: filter.PoolingClassifier, Seed: seed}, testBase(), 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetVersion(version)
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restartEdgeCfg is the edge configuration the restart tests share.
func restartEdgeCfg() core.Config {
	return core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(),
		UploadBitrate: 30_000, MaxChunkFrames: 4,
	}
}

// mkRestartAgent builds a reconnecting chaos agent on the simnet.
func mkRestartAgent(t *testing.T, n *simnet.Network, name string) *chaosAgent {
	t.Helper()
	a, err := NewAgent(AgentConfig{
		Node:          name,
		Edge:          restartEdgeCfg(),
		Heartbeat:     40 * time.Millisecond,
		ReconnectMin:  20 * time.Millisecond,
		ReconnectMax:  250 * time.Millisecond,
		ReconnectSeed: chaosSeed,
		WriteTimeout:  1 * time.Second,
		Dial: func(network, addr string) (net.Conn, error) {
			return n.Dial(name, addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.AddStream("cam0", 48, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	return &chaosAgent{name: name, agent: a, edge: e, gt: make(map[string][]core.Upload)}
}

// TestRestartChaosSoak is the controller-restart chaos soak: a durable
// 3-agent fleet is SIGKILL'd (Crash: no final snapshot, no sync)
// mid-upload — with one agent's ack path stalled so an accepted but
// unacked upload is in flight — and mid-canary, then restarted from
// its state dir. The restarted controller must recover every
// guarantee exactly: upload ledgers exactly-once record for record
// (the unacked upload neither lost nor double-counted across the
// retransmit), deploy generations and intent byte-identical, and the
// in-flight canary resolving to a terminal verdict with no orphaned
// shadow left on any edge.
func TestRestartChaosSoak(t *testing.T) {
	stateDir := t.TempDir()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Timeout:       5 * time.Second,
		HeartbeatMiss: 15,
		Shards:        2,
		StateDir:      stateDir,
		// Small compaction threshold: the soak must cross several
		// snapshot boundaries, so recovery replays snapshot + wal, not
		// just one long wal.
		SnapshotEvery: 8,
		Canary:        CanaryConfig{Window: 16, ExpireAfter: 1 << 30},
	}
	ctrl, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Nodes != 0 || stats.RecordsReplayed != 0 {
		t.Fatalf("fresh state dir recovered %+v, want empty stats", stats)
	}
	ctrl.Serve(ln)

	e1 := mkRestartAgent(t, n, "edge-1")
	e2 := mkRestartAgent(t, n, "edge-2")
	e3 := mkRestartAgent(t, n, "edge-3")
	all := []*chaosAgent{e1, e2, e3}
	defer func() {
		for _, c := range all {
			c.agent.Close()
		}
	}()

	mcs := map[string][]byte{
		"edge-1": saveVersionedMC(t, "mc-1", 11, 1),
		"edge-2": saveVersionedMC(t, "mc-2", 12, 1),
		"edge-3": saveVersionedMC(t, "mc-3", 14, 1),
	}
	for node, mc := range mcs {
		if err := ctrl.Deploy(node, "cam0", mc, -1); err != nil {
			t.Fatalf("deploy to %s: %v", node, err)
		}
	}
	for _, c := range all {
		waitFor(t, c.name+" deployed", func() bool {
			return len(c.agent.DeployedMCs("cam0")) == 1
		})
	}

	nodeReceived := func(name string) int {
		total := 0
		if err := ctrl.WithNodeDatacenter(name, func(dc *core.Datacenter) {
			for _, app := range dc.KnownApplications() {
				total += len(dc.Uploads(app))
			}
		}); err != nil {
			return -1
		}
		return total
	}
	caughtUp := func(c *chaosAgent) func() bool {
		return func() bool { return nodeReceived(c.name) == c.gtCount() }
	}

	// ---- Healthy baseline, then open the canary. ---------------------
	for _, c := range all {
		c.feed(t, 8)
	}
	for _, c := range all {
		waitFor(t, c.name+" baseline uploads", caughtUp(c))
	}
	candidate := saveVersionedMC(t, "mc-2", 12, 2)
	if err := ctrl.StartCanary("edge-2", "cam0", candidate, -1); err != nil {
		t.Fatalf("start canary: %v", err)
	}
	waitFor(t, "shadow deployed on edge-2", func() bool {
		return len(e2.edge.ShadowNames()) == 1
	})
	waitFor(t, "canary heartbeat anchored", func() bool {
		reps := ctrl.CanaryReports()
		return len(reps) == 1 && reps[0].Heartbeats > 0 && reps[0].State == "evaluating"
	})

	// ---- Crash mid-upload and mid-canary. ----------------------------
	// Stall edge-1's ack path first: its next upload is accepted and
	// logged by the controller but the ack never leaves, so at crash
	// time an accepted-but-unacked upload is in flight — the sharpest
	// exactly-once case, since the edge must retransmit it and the
	// recovered high-water mark must drop (but ack) the duplicate.
	n.SetStall("dc", "edge-1", true)
	e1.feed(t, 4)
	waitFor(t, "stalled-ack upload accepted", caughtUp(e1))
	if pending, _ := e1.agent.PendingUploads(); pending == 0 {
		t.Fatal("upload acked while the ack path was stalled")
	}
	genBefore := make(map[string]uint64)
	for _, c := range all {
		_, gen := ctrl.Intent(c.name)
		if gen == 0 {
			t.Fatalf("%s deploy generation 0 before crash", c.name)
		}
		genBefore[c.name] = gen
	}
	ledgerBefore := make(map[string]int)
	for _, c := range all {
		ledgerBefore[c.name] = nodeReceived(c.name)
	}
	ctrl.Crash()
	n.SetStall("dc", "edge-1", false)

	// The fleet keeps filtering against the dead controller: these
	// uploads buffer edge-side and must all land exactly once after
	// recovery.
	for _, c := range all {
		c.feed(t, 8)
	}

	// ---- Restart from the state dir. ---------------------------------
	ln2, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, stats2, err := OpenController(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ctrl2.Close()
	if stats2.Nodes != 3 {
		t.Fatalf("recovered %d nodes, want 3 (stats %+v)", stats2.Nodes, stats2)
	}
	if stats2.SnapshotBytes == 0 {
		t.Fatalf("no snapshot loaded despite SnapshotEvery=%d: %+v", cfg.SnapshotEvery, stats2)
	}
	ctrl = ctrl2 // the assertion closures below read through ctrl

	// Recovered generations are exactly the acknowledged ones — never
	// zero, never regressed — before any agent even reconnects: Serve
	// waits until both recovered-state checks have run.
	for _, c := range all {
		_, gen := ctrl.Intent(c.name)
		if gen != genBefore[c.name] {
			t.Fatalf("%s recovered gen %d, want %d", c.name, gen, genBefore[c.name])
		}
	}
	// The recovered ledgers hold every pre-crash acceptance, including
	// edge-1's unacked upload.
	for _, c := range all {
		if got := nodeReceived(c.name); got != ledgerBefore[c.name] {
			t.Fatalf("%s recovered ledger %d uploads, accepted %d before crash", c.name, got, ledgerBefore[c.name])
		}
	}
	ctrl.Serve(ln2)

	for _, c := range all {
		waitFor(t, c.name+" reconnected after restart", func() bool {
			return c.agent.Connected() && c.agent.Reconnects() >= 1
		})
	}
	for _, c := range all {
		waitFor(t, c.name+" post-restart uploads", caughtUp(c))
		waitFor(t, c.name+" resend buffer drained", func() bool {
			pending, _ := c.agent.PendingUploads()
			return pending == 0
		})
		if _, dropped := c.agent.PendingUploads(); dropped != 0 {
			t.Fatalf("%s dropped %d uploads", c.name, dropped)
		}
	}

	// ---- The recovered canary must resolve, not leak. ----------------
	// Keep frames flowing until the evaluator reaches a verdict: the
	// recovered record was re-armed (epoch bump) on resume, so the
	// window re-anchors on the re-pushed shadow's fresh sketches.
	deadline := time.Now().Add(20 * time.Second)
	for {
		reps := ctrl.CanaryReports()
		if len(reps) != 1 {
			t.Fatalf("canary reports after restart: %+v", reps)
		}
		if reps[0].State != "evaluating" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered canary never resolved: %+v", reps[0])
		}
		e2.feed(t, 4)
		time.Sleep(20 * time.Millisecond)
	}
	verdict := ctrl.CanaryReports()[0]
	if verdict.Version != 2 || verdict.IncumbentVersion != 1 {
		t.Fatalf("verdict versions not recovered: %+v", verdict)
	}
	// Whatever the verdict, no edge may carry an orphaned shadow two
	// reconciliations later: a promote swaps the candidate live, a
	// rollback withdraws it.
	waitFor(t, "no orphaned shadow after verdict", func() bool {
		for _, c := range all {
			if len(c.edge.ShadowNames()) != 0 {
				return false
			}
		}
		return true
	})

	// ---- Exact convergence: ledgers record for record, intent
	// byte-identical. ---------------------------------------------------
	for _, c := range all {
		c.flush(t)
	}
	for _, c := range all {
		waitFor(t, c.name+" final uploads", caughtUp(c))
	}
	for _, c := range all {
		if err := ctrl.WithNodeDatacenter(c.name, func(dc *core.Datacenter) {
			apps := dc.KnownApplications()
			if len(apps) != len(c.gt) {
				t.Fatalf("%s ledger apps %v, ground truth has %d MCs", c.name, apps, len(c.gt))
			}
			for app, want := range c.gt {
				got := dc.Uploads(app)
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d uploads, want %d", c.name, app, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.MCName != w.MCName || g.EventID != w.EventID || g.Start != w.Start ||
						g.End != w.End || g.Bits != w.Bits || g.Final != w.Final {
						t.Fatalf("%s %s upload %d differs:\n got %+v\nwant %+v", c.name, app, i, g, w)
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard ledgers sum to the fleet ground truth.
	wantUploads := 0
	for _, c := range all {
		wantUploads += c.gtCount()
	}
	gotUploads := 0
	for _, s := range ctrl.ShardStats() {
		gotUploads += s.Uploads
	}
	if gotUploads != wantUploads {
		t.Fatalf("per-shard ledgers sum to %d uploads, fleet ground truth is %d", gotUploads, wantUploads)
	}
	for _, c := range all {
		intent, gen := ctrl.Intent(c.name)
		if gen < genBefore[c.name] {
			t.Fatalf("%s generation regressed: %d < %d", c.name, gen, genBefore[c.name])
		}
		wantMCs := intent["cam0"]
		gotMCs := c.agent.DeployedMCs("cam0")
		if fmt.Sprint(gotMCs) != fmt.Sprint(wantMCs) {
			t.Fatalf("%s deployed %v, intent %v", c.name, gotMCs, wantMCs)
		}
		for _, name := range wantMCs {
			wantBytes, ok := ctrl.IntentMCBytes(c.name, "cam0", name)
			if !ok {
				t.Fatalf("%s intent lost bytes for %s", c.name, name)
			}
			mc := c.edge.MC(name)
			if mc == nil {
				t.Fatalf("%s has no deployed MC %s", c.name, name)
			}
			var buf bytes.Buffer
			if err := mc.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), wantBytes) {
				t.Fatalf("%s MC %s diverged from intent bytes", c.name, name)
			}
		}
	}

	// ---- Graceful close compacts: a third open replays no wal. -------
	for _, c := range all {
		c.agent.Close()
	}
	all = nil
	if err := ctrl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ctrl3, stats3, err := OpenController(cfg)
	if err != nil {
		t.Fatalf("reopen after graceful close: %v", err)
	}
	defer ctrl3.Close()
	if stats3.RecordsReplayed != 0 {
		t.Fatalf("graceful close left %d wal records to replay", stats3.RecordsReplayed)
	}
	if stats3.Nodes != 3 {
		t.Fatalf("third open recovered %d nodes, want 3", stats3.Nodes)
	}
	gotUploads = 0
	for _, s := range ctrl3.ShardStats() {
		gotUploads += s.Uploads
	}
	if gotUploads != wantUploads {
		t.Fatalf("snapshot-only recovery holds %d uploads, want %d", gotUploads, wantUploads)
	}
}

// TestRestartResumeAdoptsRecoveredCanaryShadow is the regression test
// for resume-hello against a restarted controller: the agent's hello
// reports its shadow inventory, and because the recovered canary
// record is undecided, reconciliation must re-adopt the shadow
// (re-push with a bumped epoch) — not withdraw it as untracked.
func TestRestartResumeAdoptsRecoveredCanaryShadow(t *testing.T) {
	stateDir := t.TempDir()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Timeout:       5 * time.Second,
		HeartbeatMiss: 15,
		StateDir:      stateDir,
		// The canary must stay undecided across the restart: the window
		// and expiry sit far beyond the test's frame budget.
		Canary: CanaryConfig{Window: 1 << 20, ExpireAfter: 1 << 30},
	}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)

	c := mkRestartAgent(t, n, "edge-1")
	defer c.agent.Close()
	if err := ctrl.Deploy("edge-1", "cam0", saveVersionedMC(t, "mc-1", 11, 1), -1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "incumbent deployed", func() bool {
		return len(c.agent.DeployedMCs("cam0")) == 1
	})
	if err := ctrl.StartCanary("edge-1", "cam0", saveVersionedMC(t, "mc-1", 11, 2), -1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shadow deployed", func() bool {
		return len(c.edge.ShadowNames()) == 1
	})
	c.feed(t, 8)
	waitFor(t, "canary window anchored", func() bool {
		reps := ctrl.CanaryReports()
		return len(reps) == 1 && reps[0].Heartbeats > 0
	})

	ctrl.Crash()
	ln2, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ctrl2.Close()
	if stats.Nodes != 1 {
		t.Fatalf("recovered %d nodes, want 1", stats.Nodes)
	}
	reps := ctrl2.CanaryReports()
	if len(reps) != 1 || reps[0].State != "evaluating" || reps[0].Version != 2 {
		t.Fatalf("recovered canary record: %+v", reps)
	}
	ctrl2.Serve(ln2)

	waitFor(t, "agent resumed on restarted controller", func() bool {
		return c.agent.Connected() && c.agent.Reconnects() >= 1
	})
	// Two reconciliation opportunities: the resume itself, plus a
	// fresh round of frames and heartbeats. The shadow must survive
	// both and keep scoring.
	c.feed(t, 8)
	waitFor(t, "recovered canary keeps observing", func() bool {
		reps := ctrl2.CanaryReports()
		return len(reps) == 1 && reps[0].State == "evaluating" && reps[0].Observations >= 4
	})
	if got := c.edge.ShadowNames(); len(got) != 1 {
		t.Fatalf("shadow inventory after restart resume: %v, want the recovered candidate", got)
	}
	evicted, _ := ctrl2.Lifecycle()
	if evicted != 0 {
		t.Fatalf("restart resume evicted %d sessions", evicted)
	}
}

// TestRestartRecoversDeferredIntent checks that intent recorded for an
// offline node (ErrDeferred) survives a crash: the node's first-ever
// connection, made to the restarted controller, must receive the
// deployment — and the recovered generation is never zero.
func TestRestartRecoversDeferredIntent(t *testing.T) {
	stateDir := t.TempDir()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{Timeout: 5 * time.Second, StateDir: stateDir}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	mc := saveVersionedMC(t, "mc-1", 11, 3)
	if err := ctrl.Deploy("edge-9", "cam0", mc, -1); !errors.Is(err, ErrDeferred) {
		t.Fatalf("deploy to offline node = %v, want ErrDeferred", err)
	}
	ctrl.Crash()

	ln2, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, stats, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()
	if stats.Nodes != 1 || stats.RecordsReplayed == 0 {
		t.Fatalf("recovery stats %+v, want 1 node from replayed records", stats)
	}
	if _, gen := ctrl2.Intent("edge-9"); gen == 0 {
		t.Fatal("recovered deploy generation is zero")
	}
	ctrl2.Serve(ln2)

	c := mkRestartAgent(t, n, "edge-9")
	defer c.agent.Close()
	waitFor(t, "deferred intent delivered after restart", func() bool {
		mcs := c.agent.DeployedMCs("cam0")
		return len(mcs) == 1 && mcs[0] == "mc-1"
	})
	wantBytes, _ := ctrl2.IntentMCBytes("edge-9", "cam0", "mc-1")
	var buf bytes.Buffer
	if err := c.edge.MC("mc-1").Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Fatal("recovered intent bytes diverged")
	}
}

// TestResizeShrinkMoveInDurable checks that a shrink carries every
// ledger to its new owner as a durable move-in: after Resize retires two
// of three shards, their directories are gone, and a crash (no
// snapshot, so recovery is pure wal replay) followed by two recoveries
// must find every node's ledger, the ShardStats totals, and the merged
// Datacenter view equal to the edges' ground truth.
func TestResizeShrinkMoveInDurable(t *testing.T) {
	stateDir := t.TempDir()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Timeout:       5 * time.Second,
		Shards:        3,
		StateDir:      stateDir,
		SnapshotEvery: -1, // no automatic compaction: the move-in records themselves must carry the ledgers
	}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)

	names := []string{"edge-0", "edge-1", "edge-2", "edge-3", "edge-4", "edge-5"}
	var agents []*chaosAgent
	for _, name := range names {
		c := mkRestartAgent(t, n, name)
		agents = append(agents, c)
	}
	mc := saveVersionedMC(t, "mc-1", 11, 1)
	for _, c := range agents {
		if err := ctrl.Deploy(c.name, "cam0", mc, -1); err != nil {
			t.Fatalf("deploy to %s: %v", c.name, err)
		}
	}
	for _, c := range agents {
		waitFor(t, c.name+" deployed", func() bool {
			return len(c.agent.DeployedMCs("cam0")) == 1
		})
	}
	// Spread load across the shards, then let every upload land.
	for _, c := range agents {
		c.feed(t, 8)
	}
	for _, c := range agents {
		waitFor(t, c.name+" uploads", func() bool {
			total := -1
			ctrl.WithNodeDatacenter(c.name, func(dc *core.Datacenter) {
				total, _ = dc.Totals()
			})
			return total == c.gtCount()
		})
	}
	retiring := 0
	for _, s := range ctrl.ShardStats()[1:] {
		retiring += s.Uploads
	}
	if retiring == 0 {
		t.Fatal("the retiring shards own no uploads; the shrink would move no ledger")
	}
	for _, c := range agents {
		c.agent.Close()
	}

	if _, err := ctrl.Resize(1); err != nil {
		t.Fatal(err)
	}
	// Retired stores are gone once the move-ins out of them are durable.
	for i := 1; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(stateDir, shardDirName(i))); !os.IsNotExist(err) {
			t.Fatalf("retired shard dir %d still present after a durable shrink (err %v)", i, err)
		}
	}
	checkLedgers(t, ctrl, agents)
	ctrl.Crash()

	// Recover twice: the second replays the same snapshot-less wal over
	// again and must read the same.
	for round := 1; round <= 2; round++ {
		ctrl, _, err = OpenController(ControllerConfig{Timeout: 5 * time.Second, Shards: 1, StateDir: stateDir})
		if err != nil {
			t.Fatalf("recovery %d: %v", round, err)
		}
		checkLedgers(t, ctrl, agents)
		ctrl.Crash()
	}
}

// TestResizeShrinkKeepsUndurableDir checks the other half of the shrink
// contract: when a move-in out of a retired shard does not reach its new
// owner's log, the retired directory is the only durable copy of the
// node, so Resize keeps it and the next recovery re-homes the node from
// it, ledger and all.
func TestResizeShrinkKeepsUndurableDir(t *testing.T) {
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{Timeout: 5 * time.Second, Shards: 2, StateDir: t.TempDir(), SnapshotEvery: -1}
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	defer func() { ctrl.Crash() }()
	node := "edge-0"
	for i := 1; newRing(2).owner(node) != 1; i++ {
		node = fmt.Sprintf("edge-%d", i)
	}
	edge := dialScripted(t, n, Hello{Node: node})
	edge.upload(1, 0)
	edge.upload(2, 10)
	edge.conn.Close()

	// Shard 0's log stops taking appends: the move-in fails.
	sh0 := ctrl.snapshotShards()[0]
	sh0.mu.Lock()
	sh0.wal.Abandon()
	sh0.mu.Unlock()
	if _, err := ctrl.Resize(1); err != nil {
		t.Fatal(err)
	}
	retired := filepath.Join(cfg.StateDir, shardDirName(1))
	if _, err := os.Stat(retired); err != nil {
		t.Fatalf("retired dir removed though its move-in was not durable: %v", err)
	}
	live := captureLogged(ctrl)
	if uploads, _ := live.Nodes[node].DC.Totals(); uploads != 2 {
		t.Fatalf("moved node holds %d uploads, want 2", uploads)
	}
	ctrl.Crash()

	cfg.Shards = 1
	ctrl, _, err = OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recovered := captureLogged(ctrl); !reflect.DeepEqual(recovered, live) {
		t.Fatalf("recovery from the kept dir differs:\n live      %s\n recovered %s",
			withoutMCBytes(live.Nodes[node]), withoutMCBytes(recovered.Nodes[node]))
	}
	if _, err := os.Stat(retired); !os.IsNotExist(err) {
		t.Fatalf("recovery kept the retired dir once the node was re-homed (err %v)", err)
	}
}

// checkLedgers requires every agent's ledger on ctrl, the ShardStats
// totals, and the merged Datacenter view to equal the agents' ground
// truth record for record.
func checkLedgers(t *testing.T, ctrl *Controller, agents []*chaosAgent) {
	t.Helper()
	same := func(g, w core.Upload) bool {
		return g.EventID == w.EventID && g.Start == w.Start && g.End == w.End && g.Bits == w.Bits && g.Final == w.Final
	}
	merged := ctrl.Datacenter()
	wantUploads, wantBits, apps := 0, int64(0), 0
	for _, c := range agents {
		if err := ctrl.WithNodeDatacenter(c.name, func(dc *core.Datacenter) {
			if got := dc.KnownApplications(); len(got) != len(c.gt) {
				t.Fatalf("%s ledger apps %v, ground truth has %d MCs", c.name, got, len(c.gt))
			}
			for app, want := range c.gt {
				got, view := dc.Uploads(app), merged.Uploads(c.name+"/"+app)
				if len(got) != len(want) || len(view) != len(want) {
					t.Fatalf("%s %s: ledger %d uploads, merged view %d, want %d", c.name, app, len(got), len(view), len(want))
				}
				for i, w := range want {
					if got[i].MCName != w.MCName || !same(got[i], w) {
						t.Fatalf("%s %s upload %d differs:\n got %+v\nwant %+v", c.name, app, i, got[i], w)
					}
					if view[i].MCName != c.name+"/"+w.MCName || !same(view[i], w) {
						t.Fatalf("%s %s merged upload %d differs:\n got %+v\nwant %+v", c.name, app, i, view[i], w)
					}
					wantBits += w.Bits
				}
				apps++
			}
		}); err != nil {
			t.Fatal(err)
		}
		wantUploads += c.gtCount()
	}
	if got := len(merged.KnownApplications()); got != apps {
		t.Fatalf("merged view holds %d applications, ground truth %d", got, apps)
	}
	gotUploads, gotBits := 0, int64(0)
	for _, s := range ctrl.ShardStats() {
		gotUploads += s.Uploads
		gotBits += s.UploadBits
	}
	if gotUploads != wantUploads || gotBits != wantBits {
		t.Fatalf("shard stats total %d uploads / %d bits, ground truth %d / %d", gotUploads, gotBits, wantUploads, wantBits)
	}
}

// TestRestartAfterShardCountGrow checks recovery across a config
// change: state written under 2 shards reopens under 4 — every node
// record must land on its current ring owner exactly once, with the
// move durably re-homed (a second recovery agrees).
func TestRestartAfterShardCountGrow(t *testing.T) {
	stateDir := t.TempDir()
	cfg2 := ControllerConfig{Timeout: time.Second, Shards: 2, StateDir: stateDir}
	ctrl, _, err := OpenController(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	mc := saveVersionedMC(t, "mc-1", 11, 1)
	names := []string{"edge-0", "edge-1", "edge-2", "edge-3", "edge-4", "edge-5", "edge-6", "edge-7"}
	for _, name := range names {
		if err := ctrl.Deploy(name, "cam0", mc, -1); !errors.Is(err, ErrDeferred) {
			t.Fatalf("deploy to offline %s = %v", name, err)
		}
	}
	ctrl.Crash()

	cfg4 := ControllerConfig{Timeout: time.Second, Shards: 4, StateDir: stateDir}
	ctrl2, stats, err := OpenController(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != len(names) {
		t.Fatalf("recovered %d nodes, want %d", stats.Nodes, len(names))
	}
	// Single ownership under the new ring.
	owned := 0
	for _, s := range ctrl2.ShardStats() {
		owned += s.Nodes
	}
	if owned != len(names) {
		t.Fatalf("shards own %d records, want %d", owned, len(names))
	}
	for _, name := range names {
		if _, gen := ctrl2.Intent(name); gen != 1 {
			t.Fatalf("%s recovered gen %d, want 1", name, gen)
		}
	}
	ctrl2.Crash()

	// The recovery-time re-homes were made durable (move-in records):
	// a crash right after recovery must replay to the same placement.
	ctrl3, stats3, err := OpenController(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl3.Close()
	if stats3.Nodes != len(names) {
		t.Fatalf("second recovery found %d nodes, want %d", stats3.Nodes, len(names))
	}
	for _, name := range names {
		if _, gen := ctrl3.Intent(name); gen != 1 {
			t.Fatalf("%s gen %d after second recovery, want 1", name, gen)
		}
	}
}
