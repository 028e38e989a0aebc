package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/vision"
)

// chaosSeed fixes every source of scripted randomness: the simnet's
// corruption bit choice and each agent's reconnect jitter.
const chaosSeed = 20190331

// chaosAgent bundles one scripted edge with its local ground truth.
type chaosAgent struct {
	name  string
	agent *Agent
	edge  *core.EdgeNode
	// gt is the node-local upload ledger, exactly what ProcessFrame
	// and Flush returned — the uploads the controller must account
	// once each, no more, no less.
	gt map[string][]core.Upload
	// next is the next frame index to feed.
	next int
}

func (c *chaosAgent) feed(t *testing.T, frames int) {
	t.Helper()
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	for i := 0; i < frames; i++ {
		img := scene.Render(nil, 1, tensor.NewRNG(int64(c.next)))
		ups, err := c.agent.ProcessFrame("cam0", img)
		if err != nil {
			t.Fatalf("%s frame %d: %v", c.name, c.next, err)
		}
		for _, u := range ups {
			c.gt[u.MCName] = append(c.gt[u.MCName], u)
		}
		c.next++
	}
}

func (c *chaosAgent) flush(t *testing.T) {
	t.Helper()
	ups, err := c.agent.Flush()
	if err != nil {
		t.Fatalf("%s flush: %v", c.name, err)
	}
	for _, u := range ups {
		c.gt[u.MCName] = append(c.gt[u.MCName], u)
	}
}

// gtCount is the node's total ground-truth upload count.
func (c *chaosAgent) gtCount() int {
	n := 0
	for _, ups := range c.gt {
		n += len(ups)
	}
	return n
}

// saveMC builds a deterministic always-positive pooling MC and
// returns its serialized bytes.
func saveMC(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	mc, err := filter.NewMC(filter.Spec{Name: name, Arch: filter.PoolingClassifier, Seed: seed}, testBase(), 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosFleetSoak drives a 3-agent fleet through a fixed-seed
// script of partitions, a one-way stall, wire corruption, and
// deferred control-plane changes, then asserts the system converged
// exactly: every agent reconnected, deployed-MC sets byte-identical
// to controller intent, upload accounting exactly-once, and the
// lifecycle counters equal to what the script induced. Every
// assertion is exact, so repeated runs (fixed seed) must agree.
func TestChaosFleetSoak(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, MaxChunkFrames: 4,
	}

	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{
		// Generous round-trip bound: in the ack-starvation phase the
		// stalled ack write must not hit its deadline (which ends the
		// session) before the script severs the link itself.
		Timeout:       5 * time.Second,
		HeartbeatMiss: 15, // x 40ms heartbeat = 600ms liveness window
	})
	ctrl.Serve(ln)
	defer ctrl.Close()

	mkAgent := func(name string) *chaosAgent {
		t.Helper()
		a, err := NewAgent(AgentConfig{
			Node:          name,
			Edge:          edgeCfg,
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
	e1 := mkAgent("edge-1")
	e2 := mkAgent("edge-2")
	e3 := mkAgent("edge-3")
	all := []*chaosAgent{e1, e2, e3}
	defer func() {
		for _, c := range all {
			c.agent.Close()
		}
	}()

	// Intent: one MC per node, plus a second on edge-3 that the
	// script will withdraw while the node is unreachable.
	mc1, mc2, mc2b, mc3, mc3b := saveMC(t, "mc-1", 11), saveMC(t, "mc-2", 12),
		saveMC(t, "mc-2b", 13), saveMC(t, "mc-3", 14), saveMC(t, "mc-3b", 15)
	for _, d := range []struct {
		node string
		mc   []byte
	}{{"edge-1", mc1}, {"edge-2", mc2}, {"edge-3", mc3}, {"edge-3", mc3b}} {
		if err := ctrl.Deploy(d.node, "cam0", d.mc, -1); err != nil {
			t.Fatalf("deploy to %s: %v", d.node, err)
		}
	}

	// nodeReceived reads the node's cross-session deduplicated upload
	// count.
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

	// ---- Phase 0: healthy fleet baseline. --------------------------
	for _, c := range all {
		c.feed(t, 8)
	}
	for _, c := range all {
		waitFor(t, c.name+" baseline uploads", caughtUp(c))
	}

	// ---- Phase 1: partition edge-1; it keeps filtering offline and
	// its uploads buffer, then reconnect delivers them exactly once.
	n.Partition("edge-1", "dc")
	waitFor(t, "edge-1 session gone", func() bool {
		return len(ctrl.ListNodes()) == 2 && !connected(e1.agent)
	})
	for _, c := range all {
		c.feed(t, 8) // edge-1 processes these fully offline
	}
	if got := nodeReceived("edge-1"); got >= e1.gtCount() {
		t.Fatalf("edge-1 partitioned but controller received %d/%d uploads", got, e1.gtCount())
	}
	n.Heal("edge-1", "dc")
	waitFor(t, "edge-1 resumed", func() bool {
		return e1.agent.Reconnects() == 1 && connected(e1.agent)
	})
	for _, c := range all {
		waitFor(t, c.name+" post-partition uploads", caughtUp(c))
	}

	// ---- Phase 2: control-plane changes while nodes are dark.
	// Deploy to a partitioned edge-2 and withdraw mc-3b from a
	// partitioned edge-3: both defer, then reconciliation applies
	// them on resume.
	n.Partition("edge-2", "dc")
	n.Partition("edge-3", "dc")
	waitFor(t, "edge-2/3 sessions gone", func() bool { return len(ctrl.ListNodes()) == 1 })
	if err := ctrl.Deploy("edge-2", "cam0", mc2b, -1); !errors.Is(err, ErrDeferred) {
		t.Fatalf("deploy to dark node = %v, want ErrDeferred", err)
	}
	if err := ctrl.Undeploy("edge-3", "cam0", "mc-3b"); !errors.Is(err, ErrDeferred) {
		t.Fatalf("undeploy on dark node = %v, want ErrDeferred", err)
	}
	n.Heal("edge-2", "dc")
	n.Heal("edge-3", "dc")
	waitFor(t, "edge-2 resumed", func() bool { return e2.agent.Reconnects() == 1 && connected(e2.agent) })
	waitFor(t, "edge-3 resumed", func() bool { return e3.agent.Reconnects() == 1 && connected(e3.agent) })
	waitFor(t, "reconcile deployed mc-2b", func() bool {
		mcs := e2.agent.DeployedMCs("cam0")
		return len(mcs) == 2 && mcs[0] == "mc-2" && mcs[1] == "mc-2b"
	})
	waitFor(t, "reconcile undeployed mc-3b", func() bool {
		mcs := e3.agent.DeployedMCs("cam0")
		return len(mcs) == 1 && mcs[0] == "mc-3"
	})
	// The undeploy drained mc-3b's tail — the smoothing-delayed
	// pending chunk plus the closing Final record — into uploads the
	// test didn't produce through feed. Wait for the Final trailer,
	// verify the drain extends the ground truth without rewriting it,
	// and fold it in (the end-state equality check then pins it).
	var drained []core.Upload
	waitFor(t, "mc-3b drain uploads", func() bool {
		ctrl.WithNodeDatacenter("edge-3", func(dc *core.Datacenter) {
			drained = dc.Uploads("cam0/mc-3b")
		})
		return len(drained) > 0 && drained[len(drained)-1].Final
	})
	gtPrev := e3.gt["cam0/mc-3b"]
	if len(drained) <= len(gtPrev) {
		t.Fatalf("mc-3b drain added nothing: %d uploads on both sides", len(drained))
	}
	for i, w := range gtPrev {
		g := drained[i]
		if g.Start != w.Start || g.End != w.End || g.Bits != w.Bits || g.Final != w.Final {
			t.Fatalf("mc-3b drain rewrote upload %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	e3.gt["cam0/mc-3b"] = append(gtPrev, drained[len(gtPrev):]...)

	// mc-2b live from a known frame: feed resumes only after the
	// reconcile settled, so its event ranges are deterministic.
	for _, c := range all {
		c.feed(t, 8)
	}
	for _, c := range all {
		waitFor(t, c.name+" post-reconcile uploads", caughtUp(c))
	}

	// ---- Phase 3: one-way stall — edge-1's uplink goes silent while
	// its downlink stays up. The controller must evict for liveness.
	evBefore, _ := ctrl.Lifecycle()
	if evBefore != 0 {
		t.Fatalf("unscripted eviction before stall phase: %d", evBefore)
	}
	n.SetStall("edge-1", "dc", true)
	waitFor(t, "liveness eviction", func() bool {
		ev, _ := ctrl.Lifecycle()
		return ev == 1
	})
	n.SetStall("edge-1", "dc", false)
	waitFor(t, "edge-1 back after eviction", func() bool {
		return e1.agent.Reconnects() == 2 && connected(e1.agent)
	})

	// ---- Phase 4: wire corruption — flip one bit in the next
	// heartbeat's payload. The controller's reader must fail typed
	// (ErrCorrupt), never hang or desync, and the agent reconnects.
	sess1, err := ctrl.Session("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CorruptNext("edge-1", "dc", 12); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess1.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("corrupted session did not die")
	}
	if err := sess1.Err(); !errors.Is(err, transport.ErrCorrupt) {
		t.Fatalf("corrupted session error = %v, want transport.ErrCorrupt", err)
	}
	waitFor(t, "edge-1 back after corruption", func() bool {
		return e1.agent.Reconnects() == 3 && connected(e1.agent)
	})

	// ---- Phase 5: ack starvation — stall the downlink so upload
	// acks never arrive, then sever. The resumed session retransmits
	// the unacked tail and dedup keeps the ledger exact.
	n.SetStall("dc", "edge-3", true)
	e3.feed(t, 4) // exactly one more chunk upload
	waitFor(t, "stalled-ack upload received", caughtUp(e3))
	if pending, _ := e3.agent.PendingUploads(); pending == 0 {
		t.Fatal("upload acked while the ack path was stalled")
	}
	n.Partition("edge-3", "dc")
	waitFor(t, "edge-3 session severed", func() bool { return !connected(e3.agent) })
	n.SetStall("dc", "edge-3", false)
	n.Heal("edge-3", "dc")
	waitFor(t, "edge-3 resumed again", func() bool {
		return e3.agent.Reconnects() == 2 && connected(e3.agent)
	})
	waitFor(t, "retransmitted tail acked", func() bool {
		pending, _ := e3.agent.PendingUploads()
		return pending == 0
	})
	if got := nodeReceived("edge-3"); got != e3.gtCount() {
		t.Fatalf("edge-3 ledger after retransmit: %d uploads, want %d (dedup failed?)", got, e3.gtCount())
	}

	// ---- Converged end state. --------------------------------------
	for _, c := range all {
		c.flush(t)
	}
	for _, c := range all {
		waitFor(t, c.name+" final uploads", caughtUp(c))
		waitFor(t, c.name+" resend buffer drained", func() bool {
			pending, _ := c.agent.PendingUploads()
			return pending == 0
		})
		if _, dropped := c.agent.PendingUploads(); dropped != 0 {
			t.Fatalf("%s dropped %d uploads from the resend buffer", c.name, dropped)
		}
	}

	// Every agent is connected and the registry holds exactly the
	// three live sessions (no leaks from the churn above).
	nodes := ctrl.ListNodes()
	if len(nodes) != 3 {
		t.Fatalf("registry has %d sessions at end, want 3: %+v", len(nodes), nodes)
	}

	// Lifecycle counters equal what the script induced: one liveness
	// eviction (phase 3) and six resumes (edge-1: partition, eviction,
	// corruption; edge-2: partition; edge-3: partition, ack-stall).
	evicted, reconnects := ctrl.Lifecycle()
	if evicted != 1 || reconnects != 6 {
		t.Fatalf("lifecycle = %d evictions, %d reconnects; script induced 1 and 6", evicted, reconnects)
	}
	wantReconnects := map[string]int{"edge-1": 3, "edge-2": 1, "edge-3": 2}
	for _, c := range all {
		if got := c.agent.Reconnects(); got != wantReconnects[c.name] {
			t.Fatalf("%s reconnected %d times, want %d", c.name, got, wantReconnects[c.name])
		}
	}

	// The counters surface through the metrics rollup the way ffserve
	// builds it: one NodeLoad per stream, lifecycle counters on the
	// node's first.
	var loads []metrics.NodeLoad
	for _, ni := range nodes {
		for i, si := range ni.Streams {
			load := metrics.NodeLoad{Node: ni.Node + "/" + si.Name, FPS: si.FPS,
				Frames: ni.Heartbeat.Streams[si.Name].Frames}
			if i == 0 {
				load.Evicted, load.Reconnects = ni.Evicted, ni.Reconnects
			}
			loads = append(loads, load)
		}
	}
	sum := metrics.SummarizeFleet(loads)
	if sum.Evicted != 1 || sum.Reconnects != 6 {
		t.Fatalf("FleetSummary lifecycle = %d/%d, want 1/6", sum.Evicted, sum.Reconnects)
	}

	// Deployed-MC sets are byte-identical to the controller's intent.
	for _, c := range all {
		intent, _ := ctrl.Intent(c.name)
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
				t.Fatalf("%s MC %s diverged from intent bytes (%d vs %d bytes)",
					c.name, name, buf.Len(), len(wantBytes))
			}
		}
	}

	// Upload accounting is exactly-once: the node ledgers equal the
	// local ground truth record for record — nothing lost across four
	// session deaths, nothing double-counted across retransmits.
	for _, c := range all {
		if err := ctrl.WithNodeDatacenter(c.name, func(dc *core.Datacenter) {
			apps := dc.KnownApplications()
			if len(apps) != len(c.gt) {
				t.Fatalf("%s ledger apps %v, ground truth has %d MCs", c.name, apps, len(c.gt))
			}
			for app, want := range c.gt {
				got := dc.Uploads(app)
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d uploads, want %d\n got %+v\nwant %+v",
						c.name, app, len(got), len(want), got, want)
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
		// Spot-check the node-prefixed aggregate view for one app.
		for app, want := range c.gt {
			var bits int64
			for _, u := range want {
				bits += u.Bits
			}
			gotBits := ctrl.Datacenter().TotalBits(c.name + "/" + app)
			if gotBits != bits {
				t.Fatalf("%s aggregate bits for %s = %d, want %d", c.name, app, gotBits, bits)
			}
			break
		}
	}
}
