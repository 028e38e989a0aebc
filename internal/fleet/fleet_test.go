package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mobilenet"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/transport"
	"repro/internal/vision"
)

func testBase() *mobilenet.Model {
	return mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nodeUploads returns the uploads of one application in a node's
// controller-side ledger, ordered by start frame.
func nodeUploads(t *testing.T, ctrl *Controller, node, app string) []core.Upload {
	t.Helper()
	var ups []core.Upload
	if err := ctrl.WithNodeDatacenter(node, func(dc *core.Datacenter) { ups = dc.Uploads(app) }); err != nil {
		t.Fatal(err)
	}
	return ups
}

// trainTestMC trains a small localized MC on the training day and
// returns its serialized form plus a deployment threshold guaranteed
// to produce events on the test day.
func trainTestMC(t *testing.T, base *mobilenet.Model, trainDay, testDay *dataset.Dataset) ([]byte, float32) {
	t.Helper()
	cfg := trainDay.Cfg
	crop := cfg.Region()
	spec := filter.Spec{Name: "fleet-mc", Arch: filter.LocalizedBinary, Crop: &crop, Hidden: 16, Seed: 7}
	mc, err := filter.NewMC(spec, base, cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	fms := make([]*tensor.Tensor, cfg.Frames)
	for i := range fms {
		fm, err := base.Extract(trainDay.FrameTensor(i), mc.Stage())
		if err != nil {
			t.Fatal(err)
		}
		fms[i] = fm
	}
	mean, std := filter.ChannelStats(fms)
	if err := mc.SetNormalization(mean, std); err != nil {
		t.Fatal(err)
	}
	var samples []train.Sample
	for i := range fms {
		y := float32(0)
		if trainDay.Labels[i] {
			y = 1
		}
		samples = append(samples, train.Sample{X: mc.BuildInput(fms, i), Y: y})
	}
	if _, err := train.Fit(mc.Net(), samples, train.Config{
		Epochs: 2, BatchSize: 8, Seed: 7, BalanceClasses: true,
		Optimizer: train.NewAdam(0.003),
	}); err != nil {
		t.Fatal(err)
	}

	// Pick a deployment threshold from the test-day score
	// distribution so the stream is guaranteed to contain events:
	// below the upper tercile, about two thirds of frames classify
	// positive.
	scores := make([]float32, testDay.Cfg.Frames)
	mc.Reset()
	record := func(cs []filter.Classification) {
		for _, c := range cs {
			scores[c.Frame] = c.Prob
		}
	}
	for i := 0; i < testDay.Cfg.Frames; i++ {
		fm, err := base.Extract(testDay.FrameTensor(i), mc.Stage())
		if err != nil {
			t.Fatal(err)
		}
		record(mc.Push(fm))
	}
	record(mc.Flush())
	sorted := append([]float32(nil), scores...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	th := sorted[len(sorted)/3]

	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), th
}

// TestEndToEndOverTCP is the acceptance test for the fleet control
// plane: a controller on loopback accepts an edge session, deploys a
// trained microclassifier over the wire, receives the edge's event
// uploads attributed to that session, and demand-fetches context
// frames for a matched event — with frame ranges and bit counts equal
// to the in-process baseline.
func TestEndToEndOverTCP(t *testing.T) {
	base := testBase()
	trainDay := dataset.Generate(dataset.Jackson(48, 50, 1))
	testDay := dataset.Generate(dataset.Jackson(48, 80, 2))
	cfg := testDay.Cfg
	mcBytes, th := trainTestMC(t, base, trainDay, testDay)

	edgeCfg := core.Config{
		FrameWidth: cfg.Width, FrameHeight: cfg.Height, FPS: cfg.FPS,
		Base: base, UploadBitrate: 40_000, MaxChunkFrames: 16,
	}

	// In-process baseline: same serialized MC, same frames, local
	// pipeline and local demand-fetch.
	baseMC, err := filter.LoadMC(bytes.NewReader(mcBytes), base, cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := core.NewEdgeNode(edgeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.Deploy(baseMC, th); err != nil {
		t.Fatal(err)
	}
	var want []core.Upload
	for i := 0; i < cfg.Frames; i++ {
		ups, err := edge.ProcessFrame(testDay.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ups...)
	}
	tail, err := edge.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, tail...)
	if len(want) == 0 {
		t.Fatal("baseline produced no uploads; threshold selection broken")
	}
	// Context range for the first matched event.
	lo := want[0].Start - 6
	if lo < 0 {
		lo = 0
	}
	hi := want[0].Start + 2
	if hi > cfg.Frames {
		hi = cfg.Frames
	}
	dcBase := core.NewDatacenter()
	dcBase.ReceiveAll(want)
	wantFetch, err := edge.ReadFetch(testDay, lo, hi, 30_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	edge.AccountFetch(wantFetch)
	wantBits := wantFetch.Bits

	// Wire run: controller + agent over real TCP on loopback. ref is
	// fed every accepted upload under its node prefix: what the merged
	// datacenter view must read.
	var refMu sync.Mutex
	ref := core.NewDatacenter()
	ctrl := NewController(ControllerConfig{Timeout: 15 * time.Second, OnUpload: func(s *Session, u core.Upload) {
		refMu.Lock()
		defer refMu.Unlock()
		u.MCName = s.Node() + "/" + u.MCName
		ref.Receive(u)
	}})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	agent, err := NewAgent(AgentConfig{Node: "edge-1", Edge: edgeCfg, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", cfg.Width, cfg.Height, testDay); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	nodes := ctrl.ListNodes()
	if len(nodes) != 1 || nodes[0].Node != "edge-1" {
		t.Fatalf("registry wrong: %+v", nodes)
	}
	if len(nodes[0].Streams) != 1 || nodes[0].Streams[0].Name != "cam0" ||
		nodes[0].Streams[0].Width != cfg.Width || nodes[0].Streams[0].FPS != cfg.FPS {
		t.Fatalf("stream inventory wrong: %+v", nodes[0].Streams)
	}
	if agent.SessionID() != nodes[0].ID {
		t.Fatalf("session ID mismatch: agent %d, registry %d", agent.SessionID(), nodes[0].ID)
	}

	// Remote MC deployment: weights cross the wire and are
	// reconstructed against the edge's base DNN.
	if err := ctrl.Deploy("edge-1", "cam0", mcBytes, th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Frames; i++ {
		if _, err := agent.ProcessFrame("cam0", testDay.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.Flush(); err != nil {
		t.Fatal(err)
	}

	sess, err := ctrl.Session("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "uploads", func() bool { return sess.received() >= len(want) })
	if sess.received() != len(want) {
		t.Fatalf("session received %d uploads, want %d", sess.received(), len(want))
	}

	// Uploads are attributed to the node and match the baseline
	// exactly: same event IDs, frame ranges, and coded bit counts.
	name := "cam0/fleet-mc"
	got := nodeUploads(t, ctrl, "edge-1", name)
	wantSorted := dcBase.Uploads("fleet-mc")
	if len(got) != len(wantSorted) {
		t.Fatalf("got %d uploads, want %d", len(got), len(wantSorted))
	}
	for i, g := range got {
		w := wantSorted[i]
		if g.Start != w.Start || g.End != w.End || g.Bits != w.Bits ||
			g.EventID != w.EventID || g.Final != w.Final {
			t.Fatalf("upload %d differs from baseline:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// The merged datacenter view has them too, keyed by node so a
	// second node running the same application cannot collide. (The
	// ledger write trails the per-session received count, so poll
	// the merged snapshot.)
	aggBits := func() int64 { return ctrl.Datacenter().TotalBits("edge-1/" + name) }
	waitFor(t, "aggregate bits", func() bool { return aggBits() == dcBase.TotalBits("fleet-mc") })

	// Wire-level demand-fetch of event context matches the
	// in-process baseline bit count.
	resp, err := ctrl.Fetch("edge-1", "cam0", lo, hi, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Start != lo || resp.End != hi || resp.Bits != wantBits {
		t.Fatalf("fetch [%d,%d) %d bits, want [%d,%d) %d bits",
			resp.Start, resp.End, resp.Bits, lo, hi, wantBits)
	}

	// Heartbeats carried the pipeline stats to the registry. A
	// heartbeat can be snapshotted between the last frame and the
	// flush (full frame count, tail bits not yet drained), so wait
	// for one carrying both totals rather than latching the first
	// full-frame-count beat.
	waitFor(t, "heartbeat", func() bool {
		hb, at := sess.lastHeartbeat()
		return !at.IsZero() && hb.Streams["cam0"].Frames == cfg.Frames &&
			hb.Streams["cam0"].UploadedBits >= dcBase.TotalBits("fleet-mc")
	})

	// The merged view is built from the node ledgers: it holds exactly
	// the uploads OnUpload saw.
	waitFor(t, "reference ledger", func() bool {
		refMu.Lock()
		defer refMu.Unlock()
		n, _ := ref.Totals()
		return n == len(want)
	})
	merged := ctrl.Datacenter()
	refMu.Lock()
	defer refMu.Unlock()
	keys := ref.KnownApplications()
	if got := merged.KnownApplications(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("merged view applications %v, want %v", got, keys)
	}
	for _, key := range keys {
		if got, want := merged.Uploads(key), ref.Uploads(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged uploads\n got %+v\nwant %+v", key, got, want)
		}
		if got, want := merged.Events(key), ref.Events(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged events\n got %+v\nwant %+v", key, got, want)
		}
		if got, want := merged.TotalBits(key), ref.TotalBits(key); got != want {
			t.Fatalf("%s: merged view %d bits, want %d", key, got, want)
		}
	}
}

// TestLiveDeployUndeployAndErrors exercises mid-stream deployment,
// undeploy draining, and the error acks of the control loop.
func TestLiveDeployUndeployAndErrors(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000}

	ctrl := NewController(ControllerConfig{Timeout: 10 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	agent, err := NewAgent(AgentConfig{Node: "edge-2", Edge: edgeCfg, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// An always-positive MC (threshold below any sigmoid output).
	mc, err := filter.NewMC(filter.Spec{Name: "live", Arch: filter.PoolingClassifier, Seed: 3}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}

	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	frame := func(i int) *vision.Image { return scene.Render(nil, 1, tensor.NewRNG(int64(i))) }

	// Stream starts before any MC exists: frames cannot be processed
	// yet (core requires at least one deployed MC), so deployment
	// happens live against an already-announced stream.
	if err := ctrl.Deploy("edge-2", "cam0", buf.Bytes(), -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := agent.ProcessFrame("cam0", frame(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Error acks: unknown stream, bad MC bytes, duplicate deploy.
	if err := ctrl.Deploy("edge-2", "nope", buf.Bytes(), 0); err == nil {
		t.Fatal("deploy to unknown stream accepted")
	}
	if err := ctrl.Deploy("edge-2", "cam0", []byte("garbage"), 0); err == nil {
		t.Fatal("garbage MC bytes accepted")
	}
	if err := ctrl.Deploy("edge-2", "cam0", buf.Bytes(), -1); err == nil {
		t.Fatal("duplicate deploy accepted")
	}

	// Fetch against a stream with no archive errors cleanly.
	if _, err := ctrl.Fetch("edge-2", "cam0", 0, 3, 10_000); err == nil {
		t.Fatal("fetch without archive accepted")
	}

	// Undeploy drains the open event: its final uploads arrive before
	// the ack. No wait: the agent's writer sends them ahead of the ack
	// and the controller accounts an upload before it reads the next
	// record, so the ledger holds the final upload once Undeploy
	// returns.
	sess, err := ctrl.Session("edge-2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Undeploy("cam0", "live"); err != nil {
		t.Fatal(err)
	}
	ups := nodeUploads(t, ctrl, "edge-2", "cam0/live")
	if len(ups) == 0 || !ups[len(ups)-1].Final {
		t.Fatalf("undeploy did not drain a final upload: %+v", ups)
	}
	if err := sess.Undeploy("cam0", "live"); err == nil {
		t.Fatal("undeploying a missing MC accepted")
	}
}

// TestV1HeaderRefused pins what replaced the one-way v1 pipe: a
// peer announcing version 1 is refused with transport.ErrVersion, its
// connection closed, nothing it sent accounted — no session, no node
// record, no upload — and Close still drains.
func TestV1HeaderRefused(t *testing.T) {
	ctrl := NewController(ControllerConfig{})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The refusal itself, seen from inside: handleConn's error.
	peer, served := net.Pipe()
	go func() {
		transport.WriteHeader(peer, 1)
		peer.Close()
	}()
	if err := ctrl.handleConn(served); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("v1 header error = %v, want transport.ErrVersion", err)
	}
	served.Close()

	// And from outside, over the listener: the old client's whole
	// conversation (header, an upload, goodbye) gets a closed connection
	// and leaves no trace.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteHeader(conn, 1); err != nil {
		t.Fatal(err)
	}
	up := core.Upload{MCName: "old-mc", EventID: 1, Start: 3, End: 9, Bits: 512, Final: true}
	// The controller may close before these land; only the outcome matters.
	_ = transport.WriteRecord(conn, transport.KindUpload, transport.ToRecord(up))
	_ = transport.WriteRecord(conn, transport.KindBye, struct{}{})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("refused connection still open: read %d bytes, err %v", n, err)
	}
	if nodes := ctrl.ListNodes(); len(nodes) != 0 {
		t.Fatalf("refused connection registered a session: %+v", nodes)
	}
	for _, s := range ctrl.ShardStats() {
		if s.Nodes != 0 || s.Sessions != 0 || s.Uploads != 0 {
			t.Fatalf("refused connection left state behind: %+v", s)
		}
	}
	if got := ctrl.Datacenter().KnownApplications(); len(got) != 0 {
		t.Fatalf("refused connection's upload was accounted: %v", got)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatalf("close after a refused connection: %v", err)
	}
}

// TestAgentMatchesSequentialEdge pins the order bench/heavy.go drives
// an agent in — Connect, wire deploys before any frame, StartScheduler,
// Submit/Wait rounds with a live deploy and an undeploy riding along,
// Flush, Close — and the synchronous ProcessFrame path with no
// StartScheduler: either way each stream's controller ledger equals a
// sequential core.EdgeNode reference record for record.
func TestAgentMatchesSequentialEdge(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, MaxChunkFrames: 4, MCWorkers: 2,
	}
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	frame := func(si, i int) *vision.Image { return scene.Render(nil, 1, tensor.NewRNG(int64(100*si+i))) }
	streams := []string{"cam0", "cam1"}
	const rounds, deployAt, undeployAt = 20, 5, 15
	mcBytes := []([]byte){saveMC(t, "m", 0), saveMC(t, "m", 1)}
	liveBytes := saveMC(t, "live", 9)
	keys := []string{"cam0/m", "cam1/m", "cam0/live"}
	load := func(data []byte) *filter.MC {
		mc, err := filter.LoadMC(bytes.NewReader(data), base, 48, 27)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	// byRecord orders a ledger on every field, so records sharing a
	// start frame compare deterministically.
	byRecord := func(ups []core.Upload) []core.Upload {
		sort.Slice(ups, func(i, j int) bool {
			a, b := ups[i], ups[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.End != b.End {
				return a.End < b.End
			}
			if a.EventID != b.EventID {
				return a.EventID < b.EventID
			}
			return !a.Final && b.Final
		})
		return ups
	}

	// The reference: one plain EdgeNode per stream, driven in a loop.
	ref := core.NewDatacenter()
	for si, name := range streams {
		cfg := edgeCfg
		cfg.StreamLabel = name
		e, err := core.NewEdgeNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Deploy(load(mcBytes[si]), -1); err != nil {
			t.Fatal(err)
		}
		var ups []core.Upload
		for i := 0; i < rounds; i++ {
			if si == 0 && i == deployAt {
				if err := e.Deploy(load(liveBytes), -1); err != nil {
					t.Fatal(err)
				}
			}
			if si == 0 && i == undeployAt {
				tail, err := e.Undeploy("live")
				if err != nil {
					t.Fatal(err)
				}
				ups = append(ups, tail...)
			}
			got, err := e.ProcessFrame(frame(si, i))
			if err != nil {
				t.Fatal(err)
			}
			ups = append(ups, got...)
		}
		tail, err := e.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range append(ups, tail...) {
			u.MCName = name + "/" + u.MCName
			ref.Receive(u)
		}
	}

	run := func(t *testing.T, node string, scheduled bool) {
		ctrl := NewController(ControllerConfig{Timeout: 10 * time.Second})
		addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Close()
		agent, err := NewAgent(AgentConfig{Node: node, Edge: edgeCfg, Heartbeat: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		for _, name := range streams {
			if _, err := agent.AddStream(name, 48, 27, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := agent.Connect("tcp", addr.String()); err != nil {
			t.Fatal(err)
		}
		sess, err := ctrl.Session(node)
		if err != nil {
			t.Fatal(err)
		}
		for si, name := range streams {
			if err := ctrl.Deploy(node, name, mcBytes[si], -1); err != nil {
				t.Fatal(err)
			}
		}
		if scheduled {
			if err := agent.StartScheduler(2); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rounds; i++ {
			if i == deployAt {
				if err := ctrl.Deploy(node, "cam0", liveBytes, -1); err != nil {
					t.Fatal(err)
				}
			}
			if i == undeployAt {
				if err := ctrl.Undeploy(node, "cam0", "live"); err != nil {
					t.Fatal(err)
				}
			}
			for si, name := range streams {
				if scheduled {
					err = agent.Submit(name, frame(si, i))
				} else {
					_, err = agent.ProcessFrame(name, frame(si, i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if scheduled {
				if err := agent.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := agent.Flush(); err != nil {
			t.Fatal(err)
		}
		// The goodbye trails every upload on the wire, so once the
		// session is done the node's ledger holds all of them.
		if err := agent.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sess.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("session did not drain")
		}
		for _, key := range keys {
			got, want := byRecord(nodeUploads(t, ctrl, node, key)), byRecord(ref.Uploads(key))
			if len(want) == 0 {
				t.Fatalf("%s: reference ledger empty (vacuous)", key)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ledger differs from the sequential reference\n got %+v\nwant %+v", key, got, want)
			}
		}
	}
	t.Run("scheduler", func(t *testing.T) { run(t, "edge-sched", true) })
	t.Run("process-frame", func(t *testing.T) { run(t, "edge-sync", false) })
}

// TestStartSchedulerUnderControlTraffic replaces the worker pool over
// and over while the controller deploys and undeploys: a request caught
// between a retired pool and its replacement must still apply, once,
// on the new pool.
func TestStartSchedulerUnderControlTraffic(t *testing.T) {
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(), UploadBitrate: 30_000}
	ctrl := NewController(ControllerConfig{Timeout: 10 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	agent, err := NewAgent(AgentConfig{Node: "edge-swap", Edge: edgeCfg, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	mc := saveMC(t, "ctl", 1)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 30; i++ {
			if err := ctrl.Deploy("edge-swap", "cam0", mc, -1); err != nil {
				done <- fmt.Errorf("deploy %d: %w", i, err)
				return
			}
			if err := ctrl.Undeploy("edge-swap", "cam0", "ctl"); err != nil {
				done <- fmt.Errorf("undeploy %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	for n := 1; ; n++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := agent.DeployedMCs("cam0"); len(got) != 0 {
				t.Fatalf("deployed after the last undeploy: %v", got)
			}
			return
		default:
		}
		if err := agent.StartScheduler(1 + n%3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeartbeatCarriesLatencySummaries verifies the observability
// rollup path end to end: an instrumented agent's heartbeats carry its
// extraction, MC-push, and upload-RTT histograms over the heartbeat
// layout to the controller registry, where they feed the fleet summary.
func TestHeartbeatCarriesLatencySummaries(t *testing.T) {
	base := testBase()
	observer := obs.NewObserver(obs.Options{})
	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, Obs: observer,
	}

	ctrl := NewController(ControllerConfig{Timeout: 10 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	agent, err := NewAgent(AgentConfig{Node: "edge-obs", Edge: edgeCfg, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := agent.AddStream("cam0", 48, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold -1 matches every frame, so uploads (and their acks)
	// flow and the RTT histogram fills.
	mc, err := filter.NewMC(filter.Spec{Name: "hb-mc", Arch: filter.LocalizedBinary, Hidden: 8, Seed: 3}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.Deploy(mc, -1); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := agent.ProcessFrame("cam0", scene.Render(nil, 1, tensor.NewRNG(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.Flush(); err != nil {
		t.Fatal(err)
	}

	sess, err := ctrl.Session("edge-obs")
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	waitFor(t, "latency heartbeat", func() bool {
		got, at := sess.lastHeartbeat()
		if at.IsZero() {
			return false
		}
		hb = got
		return hb.Extract.Count >= n && hb.MCPush.Count >= n && hb.UploadRTT.Count > 0
	})
	p50, p95, p99 := hb.Extract.Quantile(0.50), hb.Extract.Quantile(0.95), hb.Extract.Quantile(0.99)
	if p95 <= 0 || p95 < p50 {
		t.Fatalf("extraction quantiles implausible: p50 %d, p95 %d", p50, p95)
	}
	if hb.Extract.Max < p99 {
		t.Fatalf("extraction max %d below p99 %d", hb.Extract.Max, p99)
	}
	if hb.UploadRTT.Sum <= 0 {
		t.Fatalf("upload RTT sum %d, want > 0", hb.UploadRTT.Sum)
	}

	// The controller-side rollup attributes the node's histograms once.
	load := metrics.NodeLoad{Node: "edge-obs/cam0", ExtractLat: hb.Extract, UploadRTTLat: hb.UploadRTT}
	sum := metrics.SummarizeFleet([]metrics.NodeLoad{load})
	if sum.ExtractLat != hb.Extract || sum.UploadRTTLat != hb.UploadRTT {
		t.Fatalf("fleet rollup changed the histograms: %+v vs %+v", sum.ExtractLat, hb.Extract)
	}
}
