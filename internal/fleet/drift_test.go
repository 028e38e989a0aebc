package fleet

import (
	"math"
	"testing"

	"repro/internal/obs"
)

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

// observeScoresApplied runs the detector over one heartbeat the way
// noteHeartbeat does — observe, then apply every baseline-freeze
// record to the node (named "n0") — and returns the transitions.
func observeScoresApplied(st *nodeState, scores map[string]map[string]obs.SketchSnapshot, versions map[string]map[string]uint64, cfg DriftConfig) []driftEvent {
	events, freezes := observeScores(st, "n0", scores, versions, cfg)
	state := shardState{Nodes: map[string]*nodeState{"n0": st}}
	for _, f := range freezes {
		state.apply(f)
	}
	return events
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

// TestDriftConfigOff verifies the DriftOff sentinel disables a single
// statistic: with PSI off, a window that would trip the PSI threshold
// but not the KS threshold must stay quiet, while zero still means
// "use the default".
func TestDriftConfigOff(t *testing.T) {
	cfg := DriftConfig{PSI: DriftOff}
	cfg.fillDefaults()
	if !math.IsInf(cfg.PSI, 1) {
		t.Fatalf("DriftOff PSI = %v, want +Inf", cfg.PSI)
	}
	if cfg.KS != DefaultDriftKS || cfg.MinCount != DefaultDriftMinCount {
		t.Fatalf("zero fields lost defaults: %+v", cfg)
	}

	// Both off: even a wholesale distribution swap cannot flag drift.
	both := DriftConfig{PSI: DriftOff, KS: DriftOff}
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
