package retrain

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/vision"
)

// splicedSource serves the stationary dataset below the cut and the
// drifted dataset above it (modulo its length) — the edge's archive
// view of a world that changed at the cut, so demand-fetched training
// frames come from the drifted regime.
type splicedSource struct {
	a, b *dataset.Dataset
	cut  int
}

func (s splicedSource) Frame(i int) *vision.Image {
	if i < s.cut {
		return s.a.Frame(i)
	}
	return s.b.Frame((i - s.cut) % s.b.Cfg.Frames)
}

// TestClosedLoop is the drift → retrain → canary loop end to end on the
// deterministic simulated network, real frames through real MCs. Two
// edge nodes run the same trained microclassifier over the same scene;
// then one node's lighting shifts while the other replays its frames
// bit for bit. The controller must flag the shifted node from heartbeat
// score sketches alone and never flag the control; the service
// demand-fetches the drifted frames and fine-tunes the incumbent into
// candidate v1, which the canary evaluator must promote (and the drift
// detector re-baseline on); a deliberately crippled v2 must be rolled
// back, leaving v1 live.
func TestClosedLoop(t *testing.T) {
	const (
		frames                  = 96 // per-phase frame budget
		fw, fh                  = 48, 27
		control, drifting       = "edge-control", "edge-drift"
		stream, mcName          = "cam0", "mc-loop"
		seed              int64 = 1
	)
	// Same schedule, two lightings: BrightnessDrift only changes the
	// Brightness(i) multiplier, so the drifted dataset renders the
	// baseline's exact scene while its first quarter-sinusoid ramps the
	// multiplier from 1.0 toward 1.7. Phase 2 replays the phase-1 frame
	// indices on both nodes, so any score shift on the drifting node is
	// attributable to lighting alone, not to the object schedule.
	cfg := dataset.Jackson(fw, 4*frames, seed)
	cfg.BrightnessDrift = 0
	stationary := dataset.Generate(cfg)
	cfg.BrightnessDrift = 0.7
	drifted := dataset.Generate(cfg)

	// An untrained head emits sigmoid(≈0) ≈ 0.5 for every frame — no
	// score spread, so no input shift can move the sketch histogram. A
	// short fit on stationary frames gives the head real weights (and
	// the training-set normalization Save carries).
	base := testBase()
	mc, err := filter.NewMC(filter.Spec{Name: mcName, Arch: filter.PoolingClassifier, Seed: seed + 7}, base, fw, fh)
	if err != nil {
		t.Fatal(err)
	}
	trainCfg := train.Config{Epochs: 8, BatchSize: 16, Seed: seed + 7, BalanceClasses: true, Optimizer: train.NewAdam(0.003)}
	fms := make([]*tensor.Tensor, 2*frames)
	for i := range fms {
		if fms[i], err = base.Extract(stationary.FrameTensor(i), mc.Stage()); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.SetNormalization(filter.ChannelStats(fms)); err != nil {
		t.Fatal(err)
	}
	samples := make([]train.Sample, len(fms))
	for i := range fms {
		samples[i] = train.Sample{X: mc.BuildInput(fms, i)}
		if stationary.Labels[i] {
			samples[i].Y = 1
		}
	}
	if _, err := train.Fit(mc.Net(), samples, trainCfg); err != nil {
		t.Fatal(err)
	}
	var incumbent bytes.Buffer
	if err := mc.Save(&incumbent); err != nil {
		t.Fatal(err)
	}

	n := simnet.New(seed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := fleet.NewController(fleet.ControllerConfig{
		Timeout:       5 * time.Second,
		HeartbeatMiss: 40,
		Shards:        2,
		// MinCount = one full phase: the baseline freezes on exactly the
		// phase-1 observations and each window spans exactly one phase-2
		// replay, so a window never straddles a partial content cycle
		// (which would alias schedule variance into the drift score).
		Drift:  fleet.DriftConfig{PSI: fleet.DefaultDriftPSI, KS: fleet.DefaultDriftKS, MinCount: frames},
		Canary: fleet.CanaryConfig{Window: frames / 2},
	})
	ctrl.Serve(ln)
	defer ctrl.Close()

	agents := map[string]*fleet.Agent{}
	for _, e := range []struct {
		node string
		src  core.FrameSource
	}{
		{control, stationary},
		{drifting, splicedSource{a: stationary, b: drifted, cut: frames}},
	} {
		node, src := e.node, e.src
		// Threshold 2 keeps the wire clear of uploads: the loop runs on
		// the sketch, fetch and canary paths, not the event path.
		if err := ctrl.Deploy(node, stream, incumbent.Bytes(), 2); !errors.Is(err, fleet.ErrDeferred) {
			t.Fatalf("deploy to offline %s: %v", node, err)
		}
		a, err := fleet.NewAgent(fleet.AgentConfig{
			Node:      node,
			Edge:      core.Config{FrameWidth: fw, FrameHeight: fh, FPS: 15, Base: base, UploadBitrate: 30_000},
			Heartbeat: 30 * time.Millisecond,
			Dial:      func(_, addr string) (net.Conn, error) { return n.Dial(node, addr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if _, err := a.AddStream(stream, fw, fh, src); err != nil {
			t.Fatal(err)
		}
		if err := a.Connect("sim", "dc"); err != nil {
			t.Fatal(err)
		}
		agents[node] = a
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	feed := func(node string, d *dataset.Dataset, i int) {
		t.Helper()
		if _, err := agents[node].ProcessFrame(stream, d.Frame(i%d.Cfg.Frames)); err != nil {
			t.Fatalf("%s frame %d: %v", node, i, err)
		}
	}
	drift := func(node string) fleet.DriftReport {
		for _, r := range ctrl.DriftReports() {
			if r.Node == node {
				return r
			}
		}
		return fleet.DriftReport{}
	}
	canary := func() fleet.CanaryReport {
		for _, r := range ctrl.CanaryReports() {
			if r.Node == drifting {
				return r
			}
		}
		return fleet.CanaryReport{}
	}
	// runCanary keeps the drifted scene flowing until the evaluator
	// reaches a verdict on the given candidate version.
	runCanary := func(version uint64, from int) fleet.CanaryReport {
		t.Helper()
		decided := func() bool {
			r := canary()
			return r.Version == version && r.State != "evaluating"
		}
		for i := from; i < from+3*frames && !decided(); i++ {
			feed(drifting, drifted, i)
			if i%8 == 7 {
				time.Sleep(10 * time.Millisecond)
			}
		}
		waitFor("canary verdict", decided)
		return canary()
	}

	waitFor("deploy reconciliation", func() bool {
		return len(agents[control].DeployedMCs(stream)) == 1 && len(agents[drifting].DeployedMCs(stream)) == 1
	})

	// Phase 1: both nodes stationary; both baselines freeze.
	for i := 0; i < frames; i++ {
		feed(control, stationary, i)
		feed(drifting, stationary, i)
	}
	waitFor("phase-1 baselines", func() bool {
		c, d := drift(control), drift(drifting)
		return c.Total >= frames && c.Baseline > 0 && d.Total >= frames && d.Baseline > 0
	})
	if drift(control).Drifted || drift(drifting).Drifted {
		t.Fatalf("drift flagged on a stationary scene: %+v", ctrl.DriftReports())
	}

	// Phase 2: the control replays phase 1 bit for bit, the drifting
	// node the same indices under the brightness ramp. Poll after every
	// chunk so a false positive is caught whenever it happens, not just
	// at the end of the phase.
	detected := false
	for fed := 0; fed < frames; {
		for j := 0; j < 8; j, fed = j+1, fed+1 {
			feed(control, stationary, fed)
			feed(drifting, drifted, fed)
		}
		waitFor("heartbeats after chunk", func() bool {
			return drift(control).Total >= uint64(frames+fed) && drift(drifting).Total >= uint64(frames+fed)
		})
		if c := drift(control); c.Drifted {
			t.Fatalf("false positive on the bit-identical control after %d frames: %+v", fed, c)
		}
		detected = detected || drift(drifting).Drifted
	}
	dr := drift(drifting)
	if !detected {
		t.Fatalf("induced brightness drift went undetected: %+v", dr)
	}
	if c := drift(control); c.Windows == 0 || c.PSI != 0 {
		t.Fatalf("control scored no window, or a replayed window moved it: %+v", c)
	}

	// Retrain: demand-fetch the drifted archive range, fine-tune the
	// incumbent, start the canary. The labeler closes over the
	// generating datasets — the datacenter's ground-truth oracle.
	trainCfg.Seed = seed + 11
	svc, err := New(Config{
		Controller: ctrl, Base: base, FrameWidth: fw, FrameHeight: fh,
		Label: func(_ string, frame int) bool { return drifted.Labels[(frame-frames)%drifted.Cfg.Frames] },
		Train: trainCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.HandleDrift(dr, frames, 2*frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Frames != frames || res.FetchedBits <= 0 {
		t.Fatalf("retrain round: %+v", res)
	}

	// Phase 3: the shadow window fills and the evaluator must promote
	// v1; the promotion must reach the edge, and the detector must
	// re-key on the new version without a phantom alert.
	if cr := runCanary(1, frames); cr.State != fleet.CanaryPromoted {
		t.Fatalf("candidate v1 not promoted: %+v", cr)
	}
	waitFor("promoted version in heartbeats", func() bool { return drift(drifting).Version == 1 })
	if r := drift(drifting); r.Drifted {
		t.Fatalf("detector still firing after promotion: %+v", r)
	}

	// Phase 4: a crippled candidate — an untrained head emits
	// near-constant scores — must be rolled back, its shadow removed
	// from the edge, and v1 left serving.
	crippled, err := filter.NewMC(filter.Spec{Name: mcName, Arch: filter.PoolingClassifier, Seed: seed + 99}, base, fw, fh)
	if err != nil {
		t.Fatal(err)
	}
	crippled.SetVersion(2)
	var buf bytes.Buffer
	if err := crippled.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.StartCanary(drifting, stream, buf.Bytes(), 2); err != nil {
		t.Fatal(err)
	}
	if cr := runCanary(2, frames); cr.State != fleet.CanaryRolledBack {
		t.Fatalf("crippled v2 was %s (%s), want rollback", cr.State, cr.Reason)
	}
	waitFor("shadow removed after rollback", func() bool {
		for _, info := range ctrl.ListNodes() {
			if info.Node == drifting {
				return len(info.Heartbeat.ShadowScores) == 0
			}
		}
		return false
	})
	if r := drift(drifting); r.Version != 1 {
		t.Fatalf("live version %d after rollback, want 1", r.Version)
	}

	// The sharded rollup carries score sketches, drift maxima, MC
	// versions and canary counts; merging the per-shard summaries must
	// reproduce the flat rollup bit for bit.
	var flat []metrics.NodeLoad
	var perShard []metrics.FleetSummary
	for _, loads := range ctrl.ShardLoads() {
		flat = append(flat, loads...)
		perShard = append(perShard, metrics.SummarizeFleet(loads))
	}
	if merged, want := metrics.MergeFleet(perShard), metrics.SummarizeFleet(flat); !reflect.DeepEqual(merged, want) {
		t.Fatalf("sharded rollup diverged from flat:\n%+v\n%+v", merged, want)
	}
}
