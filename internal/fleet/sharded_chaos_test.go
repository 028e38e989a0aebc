package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// shardedSoakAgents and shardedSoakShards set the scale of the
// sharded chaos soak: 100 agents across 4 shards, re-sharded to 6 by a
// mid-soak restart.
const (
	shardedSoakAgents   = 100
	shardedSoakShards   = 4
	shardedSoakResizeTo = 6
)

// feedErr is feed for concurrent callers: it returns the error
// instead of calling t.Fatalf (which must not run off the test
// goroutine). Ground-truth writes are published to the test goroutine
// by the caller's WaitGroup.
func (c *chaosAgent) feedErr(frames int) error {
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	for i := 0; i < frames; i++ {
		img := scene.Render(nil, 1, tensor.NewRNG(int64(c.next)))
		ups, err := c.agent.ProcessFrame("cam0", img)
		if err != nil {
			return fmt.Errorf("%s frame %d: %w", c.name, c.next, err)
		}
		for _, u := range ups {
			c.gt[u.MCName] = append(c.gt[u.MCName], u)
		}
		c.next++
	}
	return nil
}

// waitSoak is waitFor with the headroom the 100-agent soak needs
// under -race (everything dilates ~10x) and a diagnostic hook so a
// timeout reports the state that never converged.
func waitSoak(t *testing.T, what string, cond func() bool, diag func() string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			extra := ""
			if diag != nil {
				extra = ": " + diag()
			}
			t.Fatalf("timed out waiting for %s%s", what, extra)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedChaosSoak drives a 100-agent fleet across a sharded
// durable control plane (4 shards, consistent-hash placement) through
// partitions, liveness evictions, and a mid-soak restart at 6 shards,
// then asserts exact convergence: per-shard exactly-once ledgers that sum
// to the global upload count with no duplicates, deployed-MC sets
// byte-identical to intent, single ownership of every node, and a
// cross-shard metrics rollup identical to the unsharded rollup of the
// same trace. The faults are scripted against a fixed seed;
// convergence asserts are exact, while lifecycle counters are floors
// (a saturated host can add benign reconnect cycles on top of the
// script's).
func TestShardedChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded soak is the long chaos test")
	}
	base := testBase()
	// FPS 16 (a power of two) keeps every frames/FPS term dyadic, so
	// the rollup's float sums are exactly associative and the
	// sharded-vs-unsharded rollup equality below can be exact.
	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 16, Base: base,
		UploadBitrate: 30_000, MaxChunkFrames: 4,
	}

	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig{
		Timeout: 5 * time.Second,
		// 30 x 100ms = a 3s liveness window: wide enough that scheduler
		// jitter at 100 agents under -race cannot evict a healthy node,
		// tight enough that the scripted stalls evict within the soak.
		HeartbeatMiss: 30,
		Shards:        shardedSoakShards,
		StateDir:      t.TempDir(),
	}
	ctrl := NewController(cfg)
	ctrl.Serve(ln)
	defer func() { ctrl.Close() }()

	if got := len(ctrl.ShardStats()); got != shardedSoakShards {
		t.Fatalf("%d shards, want %d", got, shardedSoakShards)
	}

	// One deterministic MC, deployed to every node while it is still
	// offline: each deploy defers, and reconciliation pushes it during
	// the connect storm — 100 concurrent reconcile paths.
	mc := saveMC(t, "mc-soak", 7)
	names := make([]string, shardedSoakAgents)
	for i := range names {
		names[i] = fmt.Sprintf("edge-%03d", i)
	}
	for _, name := range names {
		if err := ctrl.Deploy(name, "cam0", mc, -1); !errors.Is(err, ErrDeferred) {
			t.Fatalf("deploy to offline %s = %v, want ErrDeferred", name, err)
		}
	}

	agents := make([]*chaosAgent, 0, shardedSoakAgents)
	defer func() {
		var wg sync.WaitGroup
		for _, c := range agents {
			wg.Add(1)
			go func(c *chaosAgent) { defer wg.Done(); c.agent.Close() }(c)
		}
		wg.Wait()
	}()
	for _, name := range names {
		a, err := NewAgent(AgentConfig{
			Node:          name,
			Edge:          edgeCfg,
			Heartbeat:     100 * time.Millisecond,
			ReconnectMin:  20 * time.Millisecond,
			ReconnectMax:  250 * time.Millisecond,
			ReconnectSeed: chaosSeed,
			// Longer than the 3s liveness window: a stalled agent must
			// still be blocked in its write when the controller evicts,
			// or the stall phase degenerates into a plain reconnect.
			WriteTimeout: 5 * time.Second,
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
			t.Fatalf("%s connect: %v", name, err)
		}
		agents = append(agents, &chaosAgent{name: name, agent: a, edge: e, gt: make(map[string][]core.Upload)})
	}

	for _, c := range agents {
		waitSoak(t, c.name+" reconciled deploy", func() bool {
			mcs := c.agent.DeployedMCs("cam0")
			return len(mcs) == 1 && mcs[0] == "mc-soak"
		}, func() string {
			return fmt.Sprintf("deployed=%v connected=%v", c.agent.DeployedMCs("cam0"), connected(c.agent))
		})
	}

	feedAll := func(frames int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, len(agents))
		for _, c := range agents {
			wg.Add(1)
			go func(c *chaosAgent) {
				defer wg.Done()
				if err := c.feedErr(frames); err != nil {
					errs <- err
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
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
	converge := func(phase string) {
		t.Helper()
		for _, c := range agents {
			waitSoak(t, fmt.Sprintf("%s %s uploads", c.name, phase), func() bool {
				return nodeReceived(c.name) == c.gtCount()
			}, func() string {
				pending, dropped := c.agent.PendingUploads()
				return fmt.Sprintf("ledger=%d gt=%d pending=%d dropped=%d connected=%v",
					nodeReceived(c.name), c.gtCount(), pending, dropped, connected(c.agent))
			})
		}
	}

	// ---- Phase 0: healthy fleet baseline across 4 shards. ----------
	feedAll(6)
	converge("baseline")

	// Single ownership, from the start: every node record lives on
	// exactly one shard, and the registry sees all 100 sessions.
	stats := ctrl.ShardStats()
	ownedNodes := 0
	for _, s := range stats {
		ownedNodes += s.Nodes
	}
	if ownedNodes != shardedSoakAgents {
		t.Fatalf("shards own %d node records in total, want %d (split ledger?)", ownedNodes, shardedSoakAgents)
	}
	if got := len(ctrl.ListNodes()); got != shardedSoakAgents {
		t.Fatalf("registry has %d sessions, want %d", got, shardedSoakAgents)
	}

	// ---- Phase 1: partition 10 nodes, keep the fleet filtering, and
	// let the reconnect storm resume them — their buffered uploads
	// must land exactly once on their owning shards.
	parted := names[0:10]
	for _, name := range parted {
		n.Partition(name, "dc")
	}
	waitSoak(t, "partitioned sessions gone", func() bool {
		return len(ctrl.ListNodes()) == shardedSoakAgents-len(parted)
	}, func() string { return fmt.Sprintf("registered=%d", len(ctrl.ListNodes())) })
	feedAll(4)
	for _, name := range parted {
		n.Heal(name, "dc")
	}
	// Reconnect counts are lower-bounded, not exact: on a saturated
	// host (the full suite under -race) a healthy agent can exceed its
	// 5s write timeout and legitimately cycle an extra session. The
	// ledger, intent, and rollup asserts below are immune to extra
	// reconnects — dedup and resume make them invisible.
	for _, c := range agents[0:10] {
		waitSoak(t, c.name+" resumed after partition", func() bool {
			return c.agent.Reconnects() >= 1 && connected(c.agent)
		}, func() string {
			return fmt.Sprintf("reconnects=%d connected=%v registered=%d",
				c.agent.Reconnects(), connected(c.agent), len(ctrl.ListNodes()))
		})
	}
	converge("post-partition")

	// ---- Phase 2: one-way stalls on two nodes (their uplinks go
	// silent, downlinks stay up) — their owning shards must evict for
	// liveness, and only those two.
	stalled := []string{names[11], names[57]}
	for _, name := range stalled {
		n.SetStall(name, "dc", true)
	}
	// Both stalled sessions must drop (their conns die with the
	// eviction, so agent-side Connected flips false); the global
	// counter is a floor since a starved-but-healthy node could add a
	// spurious eviction under heavy load.
	waitSoak(t, "liveness evictions", func() bool {
		ev, _ := ctrl.Lifecycle()
		return ev >= 2 && !connected(agents[11].agent) && !connected(agents[57].agent)
	}, func() string {
		ev, rc := ctrl.Lifecycle()
		return fmt.Sprintf("evicted=%d reconnects=%d registered=%d stalled-connected=%v/%v",
			ev, rc, len(ctrl.ListNodes()), connected(agents[11].agent), connected(agents[57].agent))
	})
	for _, name := range stalled {
		n.SetStall(name, "dc", false)
	}
	for _, i := range []int{11, 57} {
		c := agents[i]
		waitSoak(t, c.name+" back after eviction", func() bool {
			return connected(c.agent) && c.agent.Reconnects() >= 1
		}, func() string {
			return fmt.Sprintf("reconnects=%d connected=%v", c.agent.Reconnects(), connected(c.agent))
		})
	}

	// ---- Phase 3: mid-soak re-shard 4 -> 6 by a restart. The
	// controller closes, reopens from its state dir at 6 shards, and
	// recovery re-homes the moved nodes; every session resumes on its
	// node's owner. Ledgers, intent, and drift-detector state travel
	// with the node records, so nothing forks.
	//
	// Capture the per-(node, MC) sketch reports first. Every agent has
	// pushed the same 10 frames through the same MC, so once the
	// heartbeats settle all 100 reports carry the same cumulative
	// sketch count; no frames are fed across the restart, so the
	// reports after it must reproduce this capture exactly — any
	// difference means a moved node's detector state was dropped or
	// reset by the re-home.
	waitSoak(t, "sketch reports settled before re-shard", func() bool {
		reps := driftReports(ctrl)
		if len(reps) != shardedSoakAgents {
			return false
		}
		for _, r := range reps {
			if r.Total == 0 || r.Total != reps[0].Total {
				return false
			}
		}
		return true
	}, func() string {
		reps := driftReports(ctrl)
		return fmt.Sprintf("reports=%d", len(reps))
	})
	sketchesBefore := driftReports(ctrl)
	evBefore, rcBefore := ctrl.Lifecycle()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err = n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shardedSoakResizeTo
	ctrl, recovery, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Serve(ln)
	moved := recovery.Moved
	if moved == 0 {
		t.Fatal("re-shard 4 -> 6 moved no nodes; the new shards would stay empty")
	}
	if got := len(ctrl.ShardStats()); got != shardedSoakResizeTo {
		t.Fatalf("%d shards after the re-shard, want %d", got, shardedSoakResizeTo)
	}
	waitSoak(t, "fleet resumed after re-shard", func() bool {
		return len(ctrl.ListNodes()) == shardedSoakAgents
	}, func() string { return fmt.Sprintf("registered=%d moved=%d", len(ctrl.ListNodes()), moved) })
	for _, ni := range ctrl.ListNodes() {
		if want := ctrl.ShardOf(ni.Node); ni.Shard != want {
			t.Fatalf("%s session lives on shard %d, ring owner is %d", ni.Node, ni.Shard, want)
		}
	}
	// A restart is not an eviction (no node did anything wrong): if the
	// resumes it forces were miscounted as evictions the counter would
	// jump by at least moved, far above the occasional
	// starvation-induced eviction a loaded host can add.
	evAfter, _ := ctrl.Lifecycle()
	if evAfter-evBefore >= moved {
		t.Fatalf("re-shard grew evictions %d -> %d across %d moves; a restart must not count as evictions",
			evBefore, evAfter, moved)
	}
	// The counters survived the restart in the node records, and every
	// session resumed on the reopened controller.
	waitSoak(t, "sessions resumed after the restart", func() bool {
		_, rc := ctrl.Lifecycle()
		return rc >= rcBefore+shardedSoakAgents
	}, func() string {
		_, rc := ctrl.Lifecycle()
		return fmt.Sprintf("reconnects=%d want=%d", rc, rcBefore+shardedSoakAgents)
	})

	// Detector state rode the re-home: the sketch reports — cumulative
	// counts, frozen baselines, window tallies, scores — are identical
	// to the pre-resize capture, including for every moved node.
	if sketchesAfter := driftReports(ctrl); !reflect.DeepEqual(sketchesAfter, sketchesBefore) {
		t.Fatalf("re-shard changed the drift/sketch reports:\nbefore %+v\nafter  %+v", sketchesBefore, sketchesAfter)
	}

	// ---- Phase 4: final feed on the resized fleet, then converge. --
	feedAll(4)
	var wg sync.WaitGroup
	errs := make(chan error, len(agents))
	for _, c := range agents {
		wg.Add(1)
		go func(c *chaosAgent) {
			defer wg.Done()
			ups, err := c.agent.Flush()
			if err != nil {
				errs <- fmt.Errorf("%s flush: %w", c.name, err)
				return
			}
			for _, u := range ups {
				c.gt[u.MCName] = append(c.gt[u.MCName], u)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	converge("final")
	for _, c := range agents {
		waitSoak(t, c.name+" resend buffer drained", func() bool {
			pending, _ := c.agent.PendingUploads()
			return pending == 0
		}, func() string {
			pending, dropped := c.agent.PendingUploads()
			return fmt.Sprintf("pending=%d dropped=%d connected=%v", pending, dropped, connected(c.agent))
		})
		if _, dropped := c.agent.PendingUploads(); dropped != 0 {
			t.Fatalf("%s dropped %d uploads from the resend buffer", c.name, dropped)
		}
	}

	// ---- Converged end state. --------------------------------------

	// Lifecycle totals cover the script's floor: 2 liveness evictions,
	// and one resume per partition (10), per eviction (2), and per
	// session the restart ended (all of them). They are floors, not
	// equalities, because a saturated host can add benign
	// reconnect/evict cycles — which the exact ledger and intent
	// asserts below prove harmless.
	evicted, reconnects := ctrl.Lifecycle()
	if evicted < 2 {
		t.Fatalf("evicted = %d, script induced 2", evicted)
	}
	if want := 12 + shardedSoakAgents; reconnects < want {
		t.Fatalf("reconnects = %d, script induced at least %d (10 partitions + 2 evictions + %d resumes after the restart)",
			reconnects, want, shardedSoakAgents)
	}

	// Single ownership survived the re-shard, and every shard carries
	// real load.
	stats = ctrl.ShardStats()
	if len(stats) != shardedSoakResizeTo {
		t.Fatalf("ShardStats has %d entries, want %d", len(stats), shardedSoakResizeTo)
	}
	ownedNodes = 0
	globalLedger := 0
	for _, s := range stats {
		ownedNodes += s.Nodes
		globalLedger += s.Uploads
		if s.Nodes == 0 {
			t.Fatalf("shard %d owns no nodes after the re-shard: %+v", s.Shard, stats)
		}
	}
	if ownedNodes != shardedSoakAgents {
		t.Fatalf("shards own %d node records after re-shard, want %d", ownedNodes, shardedSoakAgents)
	}

	// Per-shard exactly-once ledgers sum to the global upload count:
	// every ground-truth upload accepted exactly once, across every
	// partition, retransmit, restart, and re-home.
	wantUploads := 0
	for _, c := range agents {
		wantUploads += c.gtCount()
	}
	if globalLedger != wantUploads {
		t.Fatalf("per-shard ledgers sum to %d uploads, fleet ground truth is %d", globalLedger, wantUploads)
	}

	// Node ledgers equal the local ground truth record for record, and
	// deployed-MC state is byte-identical to intent.
	for _, c := range agents {
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
		wantBytes, ok := ctrl.IntentMCBytes(c.name, "cam0", "mc-soak")
		if !ok {
			t.Fatalf("%s lost intent bytes for mc-soak", c.name)
		}
		deployed := c.edge.MC("mc-soak")
		if deployed == nil {
			t.Fatalf("%s has no deployed mc-soak", c.name)
		}
		var buf bytes.Buffer
		if err := deployed.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wantBytes) {
			t.Fatalf("%s mc-soak diverged from intent bytes (%d vs %d bytes)", c.name, buf.Len(), len(wantBytes))
		}
	}

	// The cross-shard rollup equals the single-controller rollup of
	// the same trace, exactly: merging the per-shard summaries is the
	// same as summarizing the concatenated loads. (FPS 16 keeps the
	// float terms dyadic, so even AverageBitrate matches bit for bit.)
	perShard := ctrl.ShardLoads()
	var flat []metrics.NodeLoad
	summaries := make([]metrics.FleetSummary, 0, len(perShard))
	for _, loads := range perShard {
		flat = append(flat, loads...)
		summaries = append(summaries, metrics.SummarizeFleet(loads))
	}
	merged := metrics.MergeFleet(summaries)
	direct := metrics.SummarizeFleet(flat)
	if !reflect.DeepEqual(merged, direct) {
		t.Fatalf("cross-shard rollup diverged from the unsharded rollup:\nmerged %+v\ndirect %+v", merged, direct)
	}
	if merged.Nodes != shardedSoakAgents {
		t.Fatalf("rollup covers %d loads, want %d", merged.Nodes, shardedSoakAgents)
	}

	// The heartbeat-gap digests cover the fleet: sessions heartbeat on
	// every shard, so each shard's histogram gets observations. A gap
	// takes two heartbeats on one session, and the histograms restarted
	// empty with the controller, whose sessions may be younger than that
	// when the script ends: wait for them.
	waitSoak(t, "heartbeat-gap observations on every shard with sessions", func() bool {
		for _, s := range ctrl.ShardStats() {
			if s.Sessions > 0 && s.HeartbeatGap.Count == 0 {
				return false
			}
		}
		return true
	}, func() string { return fmt.Sprintf("%+v", ctrl.ShardStats()) })
}
