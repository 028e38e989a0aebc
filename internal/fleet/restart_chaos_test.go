package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
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

// TestResizeShrinkFoldDurable checks the shrink fold is a WAL record:
// after Resize folds retired shards' aggregate history into shard 0, a
// crash (no snapshot) must not lose it, and a second recovery must not
// double-count it — the fold is keyed by the retired store's identity.
func TestResizeShrinkFoldDurable(t *testing.T) {
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
		SnapshotEvery: -1, // no automatic compaction: the fold record itself must carry the history
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
				total = 0
				for _, app := range dc.KnownApplications() {
					total += len(dc.Uploads(app))
				}
			})
			return total == c.gtCount()
		})
	}
	loaded := 0
	for _, s := range ctrl.ShardStats() {
		if s.Uploads > 0 {
			loaded++
		}
	}
	if loaded < 2 {
		t.Fatalf("only %d shards carry uploads; the fold would be trivial", loaded)
	}
	wantUploads := 0
	for _, c := range agents {
		wantUploads += c.gtCount()
	}
	for _, c := range agents {
		c.agent.Close()
	}

	if _, err := ctrl.Resize(1); err != nil {
		t.Fatal(err)
	}
	// Retired stores are gone the moment the fold is durable.
	for i := 1; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(stateDir, shardDirName(i))); !os.IsNotExist(err) {
			t.Fatalf("retired shard dir %d still present after durable fold (err %v)", i, err)
		}
	}
	ctrl.Crash()

	ctrl2, _, err := OpenController(ControllerConfig{Timeout: 5 * time.Second, Shards: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	stats := ctrl2.ShardStats()
	if len(stats) != 1 || stats[0].Uploads != wantUploads {
		t.Fatalf("recovered fold: shard stats %+v, want %d uploads on shard 0", stats, wantUploads)
	}
	// Node ledgers survived the fold + crash record for record.
	for _, c := range agents {
		if err := ctrl2.WithNodeDatacenter(c.name, func(dc *core.Datacenter) {
			for app, want := range c.gt {
				got := dc.Uploads(app)
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d uploads after fold recovery, want %d", c.name, app, len(got), len(want))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctrl2.Crash()

	// Idempotence: recovering again (the fold records replay a second
	// time, against the same snapshot-less wal) must not double-count.
	ctrl3, _, err := OpenController(ControllerConfig{Timeout: 5 * time.Second, Shards: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl3.Close()
	stats = ctrl3.ShardStats()
	if len(stats) != 1 || stats[0].Uploads != wantUploads {
		t.Fatalf("second recovery double-counted the fold: %+v, want %d uploads", stats, wantUploads)
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
