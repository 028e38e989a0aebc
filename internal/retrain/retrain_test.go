package retrain

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/mobilenet"
	"repro/internal/simnet"
	"repro/internal/train"
)

// testBase is the same tiny base DNN internal/fleet's tests use.
func testBase() *mobilenet.Model {
	return mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
}

func TestNewValidatesConfig(t *testing.T) {
	valid := Config{
		Controller: fleet.NewController(fleet.ControllerConfig{}),
		Base:       testBase(),
		FrameWidth: 48, FrameHeight: 27,
		Label: func(string, int) bool { return false },
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"nil controller", func(c *Config) { c.Controller = nil }, "nil Controller"},
		{"nil base", func(c *Config) { c.Base = nil }, "nil Base"},
		{"nil labeler", func(c *Config) { c.Label = nil }, "nil Labeler"},
		{"zero width", func(c *Config) { c.FrameWidth = 0 }, "frame dimensions"},
		{"negative height", func(c *Config) { c.FrameHeight = -1 }, "frame dimensions"},
		{"valid", func(*Config) {}, ""},
		{"holdout out of range", func(c *Config) { c.HoldoutFrac = 1 }, ""},
	} {
		cfg := valid
		tc.mutate(&cfg)
		svc, err := New(cfg)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if svc.cfg.FetchBitrate != DefaultFetchBitrate || svc.cfg.HoldoutFrac != DefaultHoldoutFrac || svc.cfg.Log == nil {
			t.Errorf("%s: defaults not filled: %+v", tc.name, svc.cfg)
		}
	}
}

// TestRetrainRound runs the service against an in-memory controller
// and one simnet-connected agent: the two refusals that must not cost
// a demand-fetch, then one full round — fetch, label, fine-tune,
// version bump, canary start.
func TestRetrainRound(t *testing.T) {
	const node, stream, mcName = "edge-r", "cam0", "mc-r"
	base := testBase()
	day := dataset.Generate(dataset.Jackson(48, 24, 3))
	fw, fh := day.Cfg.Width, day.Cfg.Height

	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := fleet.NewController(fleet.ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()
	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Node: node,
		Edge: core.Config{FrameWidth: fw, FrameHeight: fh, FPS: 15, Base: base, UploadBitrate: 30_000},
		Dial: func(_, addr string) (net.Conn, error) { return n.Dial(node, addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	edge, err := agent.AddStream(stream, fw, fh, day)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}

	labeled := 0
	svc, err := New(Config{
		Controller: ctrl, Base: base, FrameWidth: fw, FrameHeight: fh,
		Label: func(_ string, frame int) bool {
			labeled++
			return day.Labels[frame]
		},
		Train: train.Config{Epochs: 1, BatchSize: 8, Seed: 5, Optimizer: train.NewAdam(0.003)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Refusals: an unknown node and a known node without intent for
	// the MC both fail on the intent lookup, before any fetch.
	if _, err := svc.Retrain("nobody", stream, mcName, 0, 16); err == nil {
		t.Fatal("retrain for an unknown node succeeded")
	}
	if _, err := svc.Retrain(node, stream, mcName, 0, 16); err == nil || !strings.Contains(err.Error(), "no deployment intent") {
		t.Fatalf("retrain without intent: %v", err)
	}
	if got := edge.Stats().DemandFetches; got != 0 || labeled != 0 {
		t.Fatalf("refused retrains fetched %d times and labeled %d frames", got, labeled)
	}

	// One round from a version-3 incumbent.
	mc, err := filter.NewMC(filter.Spec{Name: mcName, Arch: filter.PoolingClassifier, Seed: 7}, base, fw, fh)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetVersion(3)
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Deploy(node, stream, buf.Bytes(), 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := svc.HandleDrift(fleet.DriftReport{Node: node, Stream: stream, MC: mcName}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncumbentVersion != 3 || res.Version != 4 || res.Deferred {
		t.Fatalf("versions: %+v", res)
	}
	if res.Frames != 16 || res.FitSamples+res.HoldoutSamples != 16 || labeled != 16 || res.FetchedBits <= 0 {
		t.Fatalf("fetched/labeled counts: %+v (labeled %d)", res, labeled)
	}
	if got := edge.Stats().DemandFetches; got != 1 {
		t.Fatalf("round made %d demand fetches, want 1", got)
	}
	// The candidate the controller is now evaluating is the bumped
	// artifact, shadowing the incumbent on the edge.
	reps := ctrl.CanaryReports()
	if len(reps) != 1 || reps[0].Version != 4 || reps[0].IncumbentVersion != 3 || reps[0].State != "evaluating" {
		t.Fatalf("canary reports: %+v", reps)
	}
	if got := edge.ShadowNames(); len(got) != 1 || got[0] != mcName {
		t.Fatalf("edge shadows: %v", got)
	}
}
