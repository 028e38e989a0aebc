package fleet

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/train"
)

// driftReport is one (node, stream, MC) pair's drift state as the
// tests read it.
type driftReport struct {
	Node, Stream, MC string
	Version          uint64
	PSI, KS          float64
	// Baseline is the count the baseline froze at (zero while still
	// accumulating); Total is the latest heartbeat's cumulative count.
	Baseline, Total uint64
	Windows         int
	Drifted         bool
}

// driftReports snapshots every tracked pair's drift state across all
// shards, sorted by node, stream, then MC.
func driftReports(c *Controller) []driftReport {
	var out []driftReport
	for _, sh := range c.shards {
		sh.mu.Lock()
		for name, st := range sh.Nodes {
			for key, ds := range st.Drift {
				stream, mc, _ := strings.Cut(key, "/")
				r := driftReport{
					Node: name, Stream: stream, MC: mc,
					Version: ds.Version, PSI: ds.PSI, KS: ds.KS,
					Total: ds.Last.Count, Windows: ds.Windows, Drifted: ds.Drifted,
				}
				if ds.BaselineSet {
					r.Baseline = ds.Baseline.Count
				}
				out = append(out, r)
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b driftReport) int {
		return cmp.Or(strings.Compare(a.Node, b.Node), strings.Compare(a.Stream, b.Stream), strings.Compare(a.MC, b.MC))
	})
	return out
}

// cumSketch builds a cumulative SketchSnapshot from a score history
// (every score at or above 0.5 counts as a pass), mirroring what an
// edge node's per-MC sketch reports in heartbeats.
func cumSketch(scores []float64) obs.SketchSnapshot {
	var s obs.ScoreSketch
	for _, v := range scores {
		s.Observe(v, v >= 0.5)
	}
	return s.Snapshot()
}

// alt returns n scores alternating between a and b — a distribution
// with nonzero spread and a pass rate set by how the two values sit
// around the 0.5 decision line.
func alt(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

// observeScoresApplied runs the detector over one heartbeat the way
// noteHeartbeat does — observe, then apply every baseline-freeze
// record to the node (named "n0") — and returns the transitions.
func observeScoresApplied(st *nodeState, scores map[string]map[string]obs.SketchSnapshot, versions map[string]map[string]uint64, cfg DriftConfig) []driftEvent {
	events, freezes := observeScores(st, "n0", scoreTableOf(new(hbDecoder), scores, versions), cfg)
	state := shardState{Nodes: map[string]*nodeState{"n0": st}}
	for _, f := range freezes {
		state.apply(f)
	}
	return events
}

// scoreTableOf is the score table a session decodes, through dec, from
// a heartbeat carrying scores and versions.
func scoreTableOf(dec *hbDecoder, scores map[string]map[string]obs.SketchSnapshot, versions map[string]map[string]uint64) *scoreTable {
	var r hbRecord
	if err := r.decode(must(Heartbeat{Scores: scores, ScoreVersions: versions}.AppendBinary(nil)), dec); err != nil {
		panic(err)
	}
	return &r.scores
}

// sketchDelta is the window between two cumulative sketches, as far as
// PSI and KS read it: the count and the bins.
func sketchDelta(cur, prev obs.SketchSnapshot) obs.SketchSnapshot {
	d := obs.SketchSnapshot{Count: cur.Count - prev.Count}
	for i := range d.Bins {
		d.Bins[i] = cur.Bins[i] - prev.Bins[i]
	}
	return d
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestObserveScoresLifecycle walks one (stream, MC) pair through the
// detector: baseline accumulation, freeze, a stationary window (no
// event), a shifted window (drift-started event), and recovery
// (drift-cleared event).
func TestObserveScoresLifecycle(t *testing.T) {
	cfg := DriftConfig{}
	cfg.fillDefaults()
	st := &nodeState{}
	hb := func(scores []float64) []driftEvent {
		return observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
			"cam0": {"mc": cumSketch(scores)},
		}, nil, cfg)
	}

	// Below MinCount: no baseline yet, no events.
	low := repeat(0.2, int(cfg.MinCount)-1)
	if evs := hb(low); len(evs) != 0 {
		t.Fatalf("events before baseline: %v", evs)
	}
	ds := st.Drift["cam0/mc"]
	if ds == nil || ds.BaselineSet {
		t.Fatalf("baseline frozen below MinCount (state %+v)", ds)
	}

	// Reaching MinCount freezes the baseline; nothing is scored yet.
	base := repeat(0.2, int(cfg.MinCount))
	if evs := hb(base); len(evs) != 0 {
		t.Fatalf("events at baseline freeze: %v", evs)
	}
	ds = st.Drift["cam0/mc"] // the freeze starts the pair over with a fresh record
	if !ds.BaselineSet || ds.Baseline.Count != cfg.MinCount {
		t.Fatalf("baseline not frozen at MinCount: %+v", ds)
	}

	// A stationary window scores ~0 and stays quiet.
	calm := append(append([]float64(nil), base...), repeat(0.2, int(cfg.MinCount))...)
	if evs := hb(calm); len(evs) != 0 {
		t.Fatalf("events on stationary window: %v", evs)
	}
	if ds.Windows != 1 || ds.PSI >= cfg.PSI || ds.Drifted {
		t.Fatalf("stationary window misdetected: %+v", ds)
	}

	// A window concentrated in a different bin fires exactly one
	// drift-started event.
	shifted := append(append([]float64(nil), calm...), repeat(0.9, int(cfg.MinCount))...)
	evs := hb(shifted)
	if len(evs) != 1 || !evs[0].started {
		t.Fatalf("shifted window events = %v, want one started", evs)
	}
	if evs[0].node != "n0" || evs[0].key != "cam0/mc" {
		t.Fatalf("event identity = %+v", evs[0])
	}
	if !ds.Drifted || ds.PSI < cfg.PSI && ds.KS < cfg.KS {
		t.Fatalf("shifted window not flagged: %+v", ds)
	}

	// Still drifted on the next shifted window: no second event.
	shifted2 := append(append([]float64(nil), shifted...), repeat(0.9, int(cfg.MinCount))...)
	if evs := hb(shifted2); len(evs) != 0 {
		t.Fatalf("repeat drift re-fired: %v", evs)
	}

	// Scores returning to the baseline distribution clear the alert.
	calm2 := append(append([]float64(nil), shifted2...), repeat(0.2, int(cfg.MinCount))...)
	evs = hb(calm2)
	if len(evs) != 1 || evs[0].started {
		t.Fatalf("recovery events = %v, want one cleared", evs)
	}
	if ds.Drifted {
		t.Fatalf("still flagged after recovery: %+v", ds)
	}
}

// TestObserveScoresWindowAccumulation verifies sub-MinCount heartbeat
// deltas accumulate into one window instead of being scored as noise.
func TestObserveScoresWindowAccumulation(t *testing.T) {
	cfg := DriftConfig{MinCount: 20}
	cfg.fillDefaults()
	st := &nodeState{}
	scores := repeat(0.3, 20)
	observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
		"cam0": {"mc": cumSketch(scores)},
	}, nil, cfg)
	ds := st.Drift["cam0/mc"]
	// Dribble in 5 observations per heartbeat: windows must only be
	// scored every 4 heartbeats.
	for i := 0; i < 8; i++ {
		scores = append(scores, repeat(0.3, 5)...)
		observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
			"cam0": {"mc": cumSketch(scores)},
		}, nil, cfg)
	}
	if ds.Windows != 2 {
		t.Fatalf("scored %d windows over 40 dribbled observations, want 2", ds.Windows)
	}
}

// TestObserveScoresRedeployReset verifies a cumulative count going
// backwards (MC redeployed, fresh sketch) restarts the pair: the old
// baseline describes the old model and must not score the new one.
func TestObserveScoresRedeployReset(t *testing.T) {
	cfg := DriftConfig{}
	cfg.fillDefaults()
	st := &nodeState{}
	for i := 1; i <= 3; i++ {
		observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
			"cam0": {"mc": cumSketch(repeat(0.2, i*int(cfg.MinCount)))},
		}, nil, cfg)
	}
	ds := st.Drift["cam0/mc"]
	if !ds.BaselineSet || ds.Windows != 2 {
		t.Fatalf("setup state: %+v", ds)
	}
	// New incarnation scores high from the start — against the old
	// 0.2-heavy baseline that would read as drift, but the reset must
	// refreeze on the new distribution instead.
	fresh := repeat(0.9, int(cfg.MinCount))
	evs := observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
		"cam0": {"mc": cumSketch(fresh)},
	}, nil, cfg)
	if len(evs) != 0 {
		t.Fatalf("redeploy fired events: %v", evs)
	}
	ds = st.Drift["cam0/mc"]
	if !ds.BaselineSet || ds.Baseline.Count != cfg.MinCount || ds.Windows != 0 {
		t.Fatalf("redeploy did not refreeze baseline: %+v", ds)
	}
	if ds.Baseline.Mean() < 0.8 {
		t.Fatalf("refrozen baseline mean %v still reflects old model", ds.Baseline.Mean())
	}
}

// TestObserveScoresVersionKeyedReset is the regression test for the
// count-only redeploy detector: a busy stream redeploys an MC
// mid-flight and the replacement's fresh sketch reaches the old
// cumulative count before the next heartbeat, so cur.Count never goes
// backwards. The count-only logic scores the new model against the old
// baseline and flags phantom drift; keying the detector state on the
// model version must reset instead.
func TestObserveScoresVersionKeyedReset(t *testing.T) {
	cfg := DriftConfig{}
	cfg.fillDefaults()
	st := &nodeState{}
	vers := func(v uint64) map[string]map[string]uint64 {
		return map[string]map[string]uint64{"cam0": {"mc": v}}
	}
	// Version 1 establishes a 0.2-heavy baseline and a scored window.
	for i := 1; i <= 2; i++ {
		observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
			"cam0": {"mc": cumSketch(repeat(0.2, i*int(cfg.MinCount)))},
		}, vers(1), cfg)
	}
	ds := st.Drift["cam0/mc"]
	if !ds.BaselineSet || ds.Windows != 1 || ds.Version != 1 {
		t.Fatalf("setup state: %+v", ds)
	}
	// Version 2 arrives on a busy stream: its fresh sketch has already
	// accumulated MORE observations than version 1's cumulative total,
	// so the count-regression check cannot see the swap. The scores are
	// 0.9-heavy — against the stale baseline that reads as drift.
	busy := repeat(0.9, 3*int(cfg.MinCount))
	evs := observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
		"cam0": {"mc": cumSketch(busy)},
	}, vers(2), cfg)
	if len(evs) != 0 {
		t.Fatalf("version swap fired phantom drift events: %v", evs)
	}
	ds = st.Drift["cam0/mc"]
	if ds.Version != 2 || ds.Windows != 0 {
		t.Fatalf("detector state not reset on version change: %+v", ds)
	}
	if !ds.BaselineSet || ds.Baseline.Mean() < 0.8 {
		t.Fatalf("baseline not refrozen on the new model: %+v", ds)
	}
}

// TestDriftTablesFollowRefreeze: a session's pair keeps its baseline's
// scoring tables from one heartbeat to the next, and derives them again
// once a redeploy has frozen a new baseline: every window scores to the
// definitions' bits against the baseline in force.
func TestDriftTablesFollowRefreeze(t *testing.T) {
	cfg := DriftConfig{}
	cfg.fillDefaults()
	st := &nodeState{}
	dec := new(hbDecoder) // one session's decoder throughout
	var scored []float64
	hb := func(scores []float64, version uint64) {
		t.Helper()
		prev := driftState{}
		if ds := st.Drift["cam0/mc"]; ds != nil {
			prev = *ds
		}
		tbl := scoreTableOf(dec, map[string]map[string]obs.SketchSnapshot{"cam0": {"mc": cumSketch(scores)}}, map[string]map[string]uint64{"cam0": {"mc": version}})
		_, freezes := observeScores(st, "n0", tbl, cfg)
		state := shardState{Nodes: map[string]*nodeState{"n0": st}}
		for _, f := range freezes {
			state.apply(f)
		}
		ds := st.Drift["cam0/mc"]
		if ds.Windows > prev.Windows && ds.Version == prev.Version {
			window := sketchDelta(ds.Last, prev.Prev)
			if psi, ks := obs.PSI(ds.Baseline, window), obs.KS(ds.Baseline, window); math.Float64bits(ds.PSI) != math.Float64bits(psi) || math.Float64bits(ds.KS) != math.Float64bits(ks) {
				t.Fatalf("window %d: scored (%v, %v), the definitions give (%v, %v)", ds.Windows, ds.PSI, ds.KS, psi, ks)
			}
			scored = append(scored, ds.PSI)
		}
	}
	n := int(cfg.MinCount)
	low, high, mixed := repeat(0.2, n), repeat(0.9, n), alt(0.2, 0.5, n)
	cat := func(parts ...[]float64) []float64 { return slices.Concat(parts...) }
	hb(low, 1)                   // freezes the low baseline
	hb(cat(low, mixed), 1)       // scored against it
	hb(cat(low, mixed, high), 1) // and again, from the tables kept
	hb(high, 2)                  // a redeploy: the high baseline freezes
	hb(cat(high, mixed), 2)      // scored against the new tables
	hb(cat(high, mixed, low), 2) // and again
	if len(scored) != 4 {
		t.Fatalf("%d windows scored, want 4", len(scored))
	}
	if scored[0] == scored[2] {
		t.Fatalf("the same window scored %v against either baseline", scored[0])
	}
}

// TestDriftParityAcrossRecoveryAndRehome: a pair recovered from a
// snapshot, or moved to another shard's state by a re-home, scores its
// next windows to the same bits as a pair that never moved. The
// baseline's scoring tables ride on the session's interned pairs, never
// on the record, and are derived again for the rebuilt pair: the
// recovered state is scored through the live session's decoder, whose
// tables belong to the live pair's state, and the moved one through a
// fresh decoder. Every window the live pair scores equals obs.PSI's and
// obs.KS's bits.
func TestDriftParityAcrossRecoveryAndRehome(t *testing.T) {
	cfg := DriftConfig{}
	cfg.fillDefaults()
	beats := gridHeartbeats(16, int(cfg.MinCount)+8) // every beat after the first closes a window
	var rec hbRecord
	feed := func(st shardState, dec *hbDecoder, body []byte) {
		t.Helper()
		if err := rec.decode(body, dec); err != nil {
			t.Fatal(err)
		}
		_, freezes := observeScores(st.Nodes["n0"], "n0", &rec.scores, cfg)
		for _, f := range freezes {
			st.apply(f)
		}
	}
	live := newShardState()
	live.node("n0")
	dec := new(hbDecoder)
	for _, body := range beats[:8] {
		feed(live, dec, body)
	}
	recovered := snapshotRoundTrip(t, live)
	payload := must((&moveInRec{Name: "n0", Node: live.Nodes["n0"]}).AppendBinary(nil))
	mover, err := decodeRecord(wrecMoveIn, payload)
	if err != nil {
		t.Fatal(err)
	}
	moved := newShardState()
	moved.apply(mover)
	movedDec := new(hbDecoder)

	for _, body := range beats[8:] {
		prev := make(map[string]driftState)
		for key, ds := range live.Nodes["n0"].Drift {
			prev[key] = *ds
		}
		feed(live, dec, body)
		feed(recovered, dec, body)
		feed(moved, movedDec, body)
		for key, ds := range live.Nodes["n0"].Drift {
			if ds.Windows != prev[key].Windows+1 {
				t.Fatalf("%s: %d windows scored, want %d", key, ds.Windows, prev[key].Windows+1)
			}
			window := sketchDelta(ds.Last, prev[key].Last)
			if psi, ks := obs.PSI(ds.Baseline, window), obs.KS(ds.Baseline, window); math.Float64bits(ds.PSI) != math.Float64bits(psi) || math.Float64bits(ds.KS) != math.Float64bits(ks) {
				t.Fatalf("%s: scored (%v, %v), the definitions give (%v, %v)", key, ds.PSI, ds.KS, psi, ks)
			}
			for name, other := range map[string]shardState{"recovered": recovered, "moved": moved} {
				o := other.Nodes["n0"].Drift[key]
				if o == nil || math.Float64bits(o.PSI) != math.Float64bits(ds.PSI) || math.Float64bits(o.KS) != math.Float64bits(ds.KS) || !reflect.DeepEqual(*o, *ds) {
					t.Fatalf("%s %s: drift state %+v, the pair that never moved has %+v", name, key, o, ds)
				}
			}
		}
	}
}

// TestDriftConfigOff verifies the driftOff sentinel disables a single
// statistic: with PSI off, a window that would trip the PSI threshold
// but not the KS threshold must stay quiet, while zero still means
// "use the default".
func TestDriftConfigOff(t *testing.T) {
	cfg := DriftConfig{PSI: driftOff}
	cfg.fillDefaults()
	if !math.IsInf(cfg.PSI, 1) {
		t.Fatalf("driftOff PSI = %v, want +Inf", cfg.PSI)
	}
	if cfg.KS != DefaultDriftKS || cfg.MinCount != defaultDriftMinCount {
		t.Fatalf("zero fields lost defaults: %+v", cfg)
	}

	// Both off: even a wholesale distribution swap cannot flag drift.
	both := DriftConfig{PSI: driftOff, KS: driftOff}
	both.fillDefaults()
	st := &nodeState{}
	hb := func(scores []float64) []driftEvent {
		return observeScoresApplied(st, map[string]map[string]obs.SketchSnapshot{
			"cam0": {"mc": cumSketch(scores)},
		}, nil, both)
	}
	base := repeat(0.1, int(both.MinCount))
	hb(base)
	shifted := append(append([]float64(nil), base...), repeat(0.95, int(both.MinCount))...)
	if evs := hb(shifted); len(evs) != 0 {
		t.Fatalf("disabled detector fired: %v", evs)
	}
	ds := st.Drift["cam0/mc"]
	if ds.Windows != 1 || ds.Drifted {
		t.Fatalf("disabled detector flagged drift: %+v", ds)
	}
	if ds.PSI < DefaultDriftPSI {
		t.Fatalf("test window too tame to prove anything: psi=%v", ds.PSI)
	}
}

// TestDriftDetectedEndToEnd runs drift detection on the deterministic
// simulated network, real frames through real MCs. Two edge nodes run
// the same trained microclassifier over the same scene; then one
// node's lighting shifts while the other replays its frames bit for
// bit. The controller must flag the shifted node from heartbeat score
// sketches alone and never flag the control, and the sharded rollup of
// the sketches and drift maxima must equal the flat one.
func TestDriftDetectedEndToEnd(t *testing.T) {
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
	trainCfg := train.Config{Epochs: 8, BatchSize: 16, Seed: seed + 7, BalanceClasses: true, Optimizer: train.NewAdam(0.003)}
	if _, err := train.Fit(mc.Net(), samples, trainCfg); err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := mc.Save(&weights); err != nil {
		t.Fatal(err)
	}

	n := simnet.New(seed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{
		Timeout:       5 * time.Second,
		HeartbeatMiss: 40,
		Shards:        2,
		// MinCount = one full phase: the baseline freezes on exactly the
		// phase-1 observations and each window spans exactly one phase-2
		// replay, so a window never straddles a partial content cycle
		// (which would alias schedule variance into the drift score).
		Drift: DriftConfig{PSI: DefaultDriftPSI, KS: DefaultDriftKS, MinCount: frames},
	})
	ctrl.Serve(ln)
	defer ctrl.Close()

	agents := map[string]*Agent{}
	for _, node := range []string{control, drifting} {
		// Threshold 2 keeps the wire clear of uploads: the test runs on
		// the sketch path, not the event path.
		if err := ctrl.Deploy(node, stream, weights.Bytes(), 2); !errors.Is(err, ErrDeferred) {
			t.Fatalf("deploy to offline %s: %v", node, err)
		}
		a, err := NewAgent(AgentConfig{
			Node:      node,
			Edge:      core.Config{FrameWidth: fw, FrameHeight: fh, FPS: 15, Base: base, UploadBitrate: 30_000},
			Heartbeat: 30 * time.Millisecond,
			Dial:      func(_, addr string) (net.Conn, error) { return n.Dial(node, addr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if _, err := a.AddStream(stream, fw, fh, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Connect("sim", "dc"); err != nil {
			t.Fatal(err)
		}
		agents[node] = a
	}

	feed := func(node string, d *dataset.Dataset, i int) {
		t.Helper()
		if _, err := agents[node].ProcessFrame(stream, d.Frame(i%d.Cfg.Frames)); err != nil {
			t.Fatalf("%s frame %d: %v", node, i, err)
		}
	}
	drift := func(node string) driftReport {
		for _, r := range driftReports(ctrl) {
			if r.Node == node {
				return r
			}
		}
		return driftReport{}
	}

	waitFor(t, "deploy reconciliation", func() bool {
		return len(agents[control].DeployedMCs(stream)) == 1 && len(agents[drifting].DeployedMCs(stream)) == 1
	})

	// Phase 1: both nodes stationary; both baselines freeze.
	for i := 0; i < frames; i++ {
		feed(control, stationary, i)
		feed(drifting, stationary, i)
	}
	waitFor(t, "phase-1 baselines", func() bool {
		c, d := drift(control), drift(drifting)
		return c.Total >= frames && c.Baseline > 0 && d.Total >= frames && d.Baseline > 0
	})
	if drift(control).Drifted || drift(drifting).Drifted {
		t.Fatalf("drift flagged on a stationary scene: %+v", driftReports(ctrl))
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
		waitFor(t, "heartbeats after chunk", func() bool {
			return drift(control).Total >= uint64(frames+fed) && drift(drifting).Total >= uint64(frames+fed)
		})
		if c := drift(control); c.Drifted {
			t.Fatalf("false positive on the bit-identical control after %d frames: %+v", fed, c)
		}
		detected = detected || drift(drifting).Drifted
	}
	if !detected {
		t.Fatalf("induced brightness drift went undetected: %+v", drift(drifting))
	}
	if c := drift(control); c.Windows == 0 || c.PSI != 0 {
		t.Fatalf("control scored no window, or a replayed window moved it: %+v", c)
	}

	// The sharded rollup carries score sketches, drift maxima and MC
	// versions; merging the per-shard summaries must reproduce the flat
	// rollup bit for bit.
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
