package fleet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

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

// canaryHB builds the heartbeat observeCanary consumes: cumulative
// live scores for the incumbent and cumulative shadow scores for the
// candidate, both under the same (stream, MC) key.
func canaryHB(live, shadow []float64) Heartbeat {
	return Heartbeat{
		Scores:       map[string]map[string]obs.SketchSnapshot{"cam0": {"mc": cumSketch(live)}},
		ShadowScores: map[string]map[string]obs.SketchSnapshot{"cam0": {"mc": cumSketch(shadow)}},
	}
}

// observeCanaryApplied runs the evaluator over one heartbeat the way
// noteHeartbeat does — observe, then apply every verdict record to the
// node (named "n0") — and returns the verdicts.
func observeCanaryApplied(st *nodeState, hb Heartbeat, cfg CanaryConfig) []*canaryVerdictRec {
	verdicts := observeCanary(st, "n0", hb, cfg)
	state := shardState{Nodes: map[string]*nodeState{"n0": st}}
	for _, v := range verdicts {
		state.apply(v)
	}
	return verdicts
}

func canaryTestState() *nodeState {
	return &nodeState{Canary: map[string]*canaryState{
		"cam0/mc": {Version: 2, IncumbentVersion: 1},
	}}
}

// TestObserveCanaryPromote fills the window with a candidate whose
// score spread and pass rate track the incumbent's: the verdict must
// be promotion, and a decided canary must go quiet afterwards.
func TestObserveCanaryPromote(t *testing.T) {
	cfg := CanaryConfig{Window: 16}
	cfg.fillDefaults()
	st := canaryTestState()

	// First shadow-carrying heartbeat anchors the live window (the
	// incumbent already has history) and is below the window: no
	// verdict yet.
	evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.7, 32), alt(0.3, 0.8, 8)), cfg)
	if len(evs) != 0 {
		t.Fatalf("verdict before window filled: %+v", evs)
	}
	cs := st.Canary["cam0/mc"]
	if cs.Outcome != "" || cs.Heartbeats != 1 {
		t.Fatalf("state after first heartbeat: %+v", cs)
	}

	// The window fills with matched behavior: 16 fresh shadow scores
	// and 16 fresh live scores, both passing half the time.
	evs = observeCanaryApplied(st, canaryHB(alt(0.2, 0.7, 48), alt(0.3, 0.8, 16)), cfg)
	if len(evs) != 1 {
		t.Fatalf("want one verdict, got %+v", evs)
	}
	ev := evs[0]
	if ev.Outcome != CanaryPromoted || ev.Version != 2 || ev.Observations != 16 || ev.Heartbeats != 2 {
		t.Fatalf("promote verdict: %+v", ev)
	}
	if ev.Node != "n0" || ev.Stream != "cam0" || ev.Name != "mc" {
		t.Fatalf("verdict identity: %+v", ev)
	}
	if cs.Outcome != CanaryPromoted {
		t.Fatalf("state outcome after promote: %q", cs.Outcome)
	}

	// Decided canaries are terminal: further heartbeats (the promote
	// round trip is still in flight) produce no second verdict.
	if evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.7, 64), alt(0.3, 0.8, 32)), cfg); len(evs) != 0 {
		t.Fatalf("verdict on decided canary: %+v", evs)
	}
}

// TestObserveCanaryRollbackPassDelta gives the candidate healthy
// spread but a pass rate far from the incumbent's: a behavioral
// regression that must roll back.
func TestObserveCanaryRollbackPassDelta(t *testing.T) {
	cfg := CanaryConfig{Window: 16}
	cfg.fillDefaults()
	st := canaryTestState()

	// Incumbent passes nothing (scores below 0.5); the candidate
	// passes everything while keeping nonzero spread.
	if evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.3, 16), alt(0.6, 0.9, 8)), cfg); len(evs) != 0 {
		t.Fatalf("verdict before window filled: %+v", evs)
	}
	evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.3, 32), alt(0.6, 0.9, 16)), cfg)
	if len(evs) != 1 || evs[0].Outcome != CanaryRolledBack {
		t.Fatalf("want rollback, got %+v", evs)
	}
	if !strings.Contains(evs[0].Reason, "pass-rate gap") {
		t.Fatalf("rollback reason: %q", evs[0].Reason)
	}
	if evs[0].PassDelta <= cfg.MaxPassDelta {
		t.Fatalf("passDelta %.3f should exceed %.3f", evs[0].PassDelta, cfg.MaxPassDelta)
	}
}

// TestObserveCanaryRollbackDegenerate gives the candidate constant
// scores — an untrained or corrupted head — which must roll back on
// the spread floor even though its pass rate matches the incumbent.
func TestObserveCanaryRollbackDegenerate(t *testing.T) {
	cfg := CanaryConfig{Window: 16}
	cfg.fillDefaults()
	st := canaryTestState()

	if evs := observeCanaryApplied(st, canaryHB(alt(0.6, 0.9, 16), repeat(0.7, 8)), cfg); len(evs) != 0 {
		t.Fatalf("verdict before window filled: %+v", evs)
	}
	evs := observeCanaryApplied(st, canaryHB(alt(0.6, 0.9, 32), repeat(0.7, 16)), cfg)
	if len(evs) != 1 || evs[0].Outcome != CanaryRolledBack {
		t.Fatalf("want rollback, got %+v", evs)
	}
	if !strings.Contains(evs[0].Reason, "degenerate") {
		t.Fatalf("rollback reason: %q", evs[0].Reason)
	}
	if evs[0].Spread >= cfg.MinSpread {
		t.Fatalf("spread %.4f should be under %.4f", evs[0].Spread, cfg.MinSpread)
	}
}

// TestObserveCanaryExpiry starves the window (a stalled stream feeds
// no new frames) until the heartbeat clock runs out: the canary must
// expire rather than sit undecided forever.
func TestObserveCanaryExpiry(t *testing.T) {
	cfg := CanaryConfig{Window: 1 << 20, ExpireAfter: 3}
	cfg.fillDefaults()
	st := canaryTestState()

	// The same cumulative sketches arrive on every heartbeat: the
	// shadow saw a few frames once, then the stream stalled.
	hb := canaryHB(alt(0.2, 0.7, 4), alt(0.3, 0.8, 4))
	for i := 0; i < 2; i++ {
		if evs := observeCanaryApplied(st, hb, cfg); len(evs) != 0 {
			t.Fatalf("verdict on heartbeat %d: %+v", i+1, evs)
		}
	}
	evs := observeCanaryApplied(st, hb, cfg)
	if len(evs) != 1 || evs[0].Outcome != CanaryExpired {
		t.Fatalf("want expiry, got %+v", evs)
	}
	if !strings.Contains(evs[0].Reason, "heartbeats") {
		t.Fatalf("expiry reason: %q", evs[0].Reason)
	}

	// A shadow sketch with no canary record (a stale shadow whose
	// rollback has not reached the node yet) is ignored, not a panic.
	orphan := &nodeState{}
	if evs := observeCanaryApplied(orphan, hb, cfg); len(evs) != 0 {
		t.Fatalf("events for untracked shadow: %+v", evs)
	}
}

// withShadowEpoch stamps the heartbeat's shadow install counter for
// the canary pair, as agents echoing DeployRequest.Epoch do.
func withShadowEpoch(hb Heartbeat, epoch uint64) Heartbeat {
	hb.ShadowEpochs = map[string]map[string]uint64{"cam0": {"mc": epoch}}
	return hb
}

// TestObserveCanaryLiveWindowGate arrives with a full shadow window
// before the live window has any span (frame rates outpace the
// heartbeat cadence, or the incumbent never reports scores). A verdict
// there would compare the candidate against nothing — passDelta
// degenerates to its absolute pass rate, rolling back a healthy
// always-pass candidate — so the evaluator must hold until both
// windows fill and fall back to expiry when the live side never does.
func TestObserveCanaryLiveWindowGate(t *testing.T) {
	cfg := CanaryConfig{Window: 16, ExpireAfter: 3}
	cfg.fillDefaults()
	st := canaryTestState()

	hb := canaryHB(alt(0.2, 0.7, 8), alt(0.6, 0.9, 16))
	if evs := observeCanaryApplied(st, hb, cfg); len(evs) != 0 {
		t.Fatalf("verdict with empty live window: %+v", evs)
	}

	// The incumbent stalls (same cumulative live sketch) while the
	// shadow keeps scoring: the live window never fills and the
	// canary expires rather than deciding blind.
	if evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.7, 8), alt(0.6, 0.9, 32)), cfg); len(evs) != 0 {
		t.Fatalf("verdict with unfilled live window: %+v", evs)
	}
	evs := observeCanaryApplied(st, canaryHB(alt(0.2, 0.7, 8), alt(0.6, 0.9, 48)), cfg)
	if len(evs) != 1 || evs[0].Outcome != CanaryExpired {
		t.Fatalf("want expiry, got %+v", evs)
	}
	if !strings.Contains(evs[0].Reason, "live 0/16") {
		t.Fatalf("expiry reason should name the live window: %q", evs[0].Reason)
	}

	// No live sketch at all (the incumbent exists in intent but the
	// node never reported its scores): same refusal to decide.
	st2 := canaryTestState()
	noLive := Heartbeat{ShadowScores: map[string]map[string]obs.SketchSnapshot{
		"cam0": {"mc": cumSketch(alt(0.6, 0.9, 32))},
	}}
	if evs := observeCanaryApplied(st2, noLive, cfg); len(evs) != 0 {
		t.Fatalf("verdict with no live sketch: %+v", evs)
	}
}

// TestObserveCanaryEpochReAnchor re-pushes the candidate (epoch bump)
// with a fresh sketch whose cumulative count has caught up to exactly
// the old install's — the case count-regression detection cannot see.
// The evaluator must re-anchor both windows on the new lifetime
// instead of subtracting across sketch lifetimes.
func TestObserveCanaryEpochReAnchor(t *testing.T) {
	cfg := CanaryConfig{Window: 16}
	cfg.fillDefaults()
	st := canaryTestState()
	cs := st.Canary["cam0/mc"]

	if evs := observeCanaryApplied(st, withShadowEpoch(canaryHB(alt(0.2, 0.7, 32), alt(0.3, 0.8, 8)), 1), cfg); len(evs) != 0 {
		t.Fatalf("verdict before window filled: %+v", evs)
	}

	// Install 2 reports the same shadow count as install 1's last
	// heartbeat, under a new epoch.
	if evs := observeCanaryApplied(st, withShadowEpoch(canaryHB(alt(0.2, 0.7, 48), alt(0.3, 0.8, 8)), 2), cfg); len(evs) != 0 {
		t.Fatalf("verdict across sketch lifetimes: %+v", evs)
	}
	if cs.SeenEpoch != 2 {
		t.Fatalf("seenEpoch = %d, want 2", cs.SeenEpoch)
	}
	if want := cumSketch(alt(0.2, 0.7, 48)); cs.BaseLive != want {
		t.Fatalf("live window not re-anchored:\n got %+v\nwant %+v", cs.BaseLive, want)
	}

	// The re-anchored windows fill and decide on install 2's span
	// only: 16 fresh observations each side, matched behavior.
	evs := observeCanaryApplied(st, withShadowEpoch(canaryHB(alt(0.2, 0.7, 64), alt(0.3, 0.8, 16)), 2), cfg)
	if len(evs) != 1 || evs[0].Outcome != CanaryPromoted || evs[0].Observations != 16 {
		t.Fatalf("want promote on re-anchored window, got %+v", evs)
	}
}

// TestStartCanaryRequiresIncumbent refuses a canary with nothing to
// evaluate against: no same-named incumbent in intent and no live
// session reporting its sketch.
func TestStartCanaryRequiresIncumbent(t *testing.T) {
	ctrl := NewController(ControllerConfig{})
	defer ctrl.Close()
	cand := saveMC(t, "mc-c", 7)

	err := ctrl.StartCanary("edge-x", "cam0", cand, -1)
	if err == nil || !strings.Contains(err.Error(), "no live incumbent") {
		t.Fatalf("want incumbent refusal, got %v", err)
	}
	if n := len(ctrl.CanaryReports()); n != 0 {
		t.Fatalf("refused canary recorded: %d reports", n)
	}

	// Intent for the same-named incumbent makes the pair eligible
	// even while the node is offline: the canary is recorded for
	// reconciliation and the call defers.
	if err := ctrl.Deploy("edge-x", "cam0", saveMC(t, "mc-c", 3), -1); !errors.Is(err, ErrDeferred) {
		t.Fatalf("offline deploy: %v", err)
	}
	if err := ctrl.StartCanary("edge-x", "cam0", cand, -1); !errors.Is(err, ErrDeferred) {
		t.Fatalf("offline canary with intent: %v", err)
	}
	reports := ctrl.CanaryReports()
	if len(reports) != 1 || reports[0].State != "evaluating" {
		t.Fatalf("canary reports: %+v", reports)
	}
}

// TestResolveCanaryStaleVerdict replaces the canary record between
// verdict and async resolution (a new StartCanary for the pair): the
// stale verdict must not promote the unevaluated replacement.
func TestResolveCanaryStaleVerdict(t *testing.T) {
	ctrl := NewController(ControllerConfig{})
	defer ctrl.Close()

	ctrl.onNode("n0", true, func(_ *shard, st *nodeState) {
		st.Canary = map[string]*canaryState{
			"cam0/mc": {MC: []byte{9}, Version: 3},
		}
	})
	// Version mismatch (verdict was for the replaced candidate) and
	// outcome mismatch (the replacement is still evaluating): both
	// must leave intent and generation untouched.
	ctrl.resolveCanary(&canaryVerdictRec{Node: "n0", Stream: "cam0", Name: "mc", Version: 2, Outcome: CanaryPromoted})
	ctrl.resolveCanary(&canaryVerdictRec{Node: "n0", Stream: "cam0", Name: "mc", Version: 3, Outcome: CanaryPromoted})
	ctrl.onNode("n0", true, func(_ *shard, st *nodeState) {
		if len(st.Intent) != 0 {
			t.Errorf("stale promote wrote intent: %+v", st.Intent)
		}
		if st.Gen != 0 {
			t.Errorf("stale promote bumped generation to %d", st.Gen)
		}
		if st.Canary["cam0/mc"].Outcome != "" {
			t.Errorf("stale promote touched the replacement record: %+v", st.Canary["cam0/mc"])
		}
	})
}

// TestReconcileShadowWithdrawal diffs a resume hello's reported
// shadows against the canary ledger: undecided candidates are
// re-pushed under the next epoch (which serveSession commits; the diff
// itself mutates nothing), while shadows whose record is decided (a
// lost rollback push) or untracked are withdrawn.
func TestReconcileShadowWithdrawal(t *testing.T) {
	st := &nodeState{Canary: map[string]*canaryState{
		"cam0/live-one": {MC: []byte{1}, Version: 5, Epoch: 1},
		"cam0/dead-one": {MC: []byte{2}, Version: 6, Epoch: 1, Outcome: CanaryRolledBack},
	}}
	hello := Hello{Shadows: map[string][]string{
		"cam0": {"dead-one", "live-one", "untracked"},
	}}

	var rePush []reconcileItem
	withdrawn := map[string]bool{}
	for _, w := range reconcileWorkLocked(st, hello) {
		switch {
		case !w.canary:
			t.Fatalf("non-canary work from shadow-only state: %+v", w)
		case w.dep != nil:
			rePush = append(rePush, w)
		default:
			withdrawn[w.name] = true
		}
	}
	if len(rePush) != 1 || rePush[0].name != "live-one" || rePush[0].version != 5 || rePush[0].epoch != 2 {
		t.Fatalf("re-push items: %+v", rePush)
	}
	if st.Canary["cam0/live-one"].Epoch != 1 {
		t.Fatalf("the diff bumped the record epoch itself: %d", st.Canary["cam0/live-one"].Epoch)
	}
	if len(withdrawn) != 2 || !withdrawn["dead-one"] || !withdrawn["untracked"] {
		t.Fatalf("withdrawals: %v", withdrawn)
	}

	// An older agent reports no shadow inventory (gob zero): nothing
	// to diff, so no withdrawals — only the re-push.
	count := 0
	for _, w := range reconcileWorkLocked(st, Hello{}) {
		if w.dep == nil {
			t.Fatalf("withdrawal without a reported inventory: %+v", w)
		}
		count++
	}
	if count != 1 {
		t.Fatalf("want 1 re-push for older agent, got %d", count)
	}
}
