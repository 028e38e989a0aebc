package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/filter"
	"repro/internal/obs"
)

// Default canary-evaluator parameters. The window is sized like the
// drift detector's MinCount default (big enough that the score
// statistics are not noise); the spread floor catches degenerate
// candidates (an untrained or corrupted head emits near-constant
// scores); the pass-rate gap bounds how far the candidate's decision
// behavior may sit from the incumbent's before promotion is refused.
const (
	DefaultCanaryWindow       = 64
	DefaultCanaryExpireAfter  = 400
	DefaultCanaryMinSpread    = 0.01
	DefaultCanaryMaxPassDelta = 0.5
)

// CanaryConfig parameterizes the controller's canary evaluator: the
// shadow candidate scores live frames next to the incumbent, and once
// its evaluation window fills, the controller either promotes it
// (atomic deploy-generation swap) or rolls it back. Zero fields take
// the defaults above.
type CanaryConfig struct {
	// Window is the minimum number of shadow score observations
	// before a verdict.
	Window uint64
	// ExpireAfter is the number of shadow-carrying heartbeats the
	// evaluator tolerates before a canary that never filled its
	// window is declared undecided and rolled back — the guard
	// against a canary stuck on a stalled stream.
	ExpireAfter int
	// MinSpread is the minimum candidate score standard deviation
	// over the window. A candidate below it cannot discriminate
	// frames (constant output) and is rolled back regardless of its
	// agreement with the incumbent.
	MinSpread float64
	// MaxPassDelta is the maximum |candidate − incumbent| pass-rate
	// gap over the window before the candidate is rolled back as a
	// behavioral regression.
	MaxPassDelta float64
}

func (c *CanaryConfig) fillDefaults() {
	if c.Window == 0 {
		c.Window = DefaultCanaryWindow
	}
	if c.ExpireAfter == 0 {
		c.ExpireAfter = DefaultCanaryExpireAfter
	}
	if c.MinSpread == 0 {
		c.MinSpread = DefaultCanaryMinSpread
	}
	if c.MaxPassDelta == 0 {
		c.MaxPassDelta = DefaultCanaryMaxPassDelta
	}
}

// Canary outcomes, as recorded in canaryState.Outcome and
// CanaryReport.State ("" / "evaluating" while undecided).
const (
	CanaryPromoted   = "promoted"
	CanaryRolledBack = "rolled_back"
	CanaryExpired    = "expired"
)

// canaryState is one (stream, MC) pair's canary-evaluation state on
// its node record. Like driftState it lives in nodeState, so a Resize
// re-home moves it wholesale and an in-flight window is never lost or
// double-decided across shards. The candidate, epoch, outcome, and
// reason are logged (start, epoch, and verdict records); the window
// anchors and progress are soft state observeCanary keeps from
// heartbeats, until a verdict record freezes the progress fields.
type canaryState struct {
	// MC, Threshold, and Version describe the candidate artifact;
	// MC is kept for reconciliation (re-pushing the shadow to a
	// reconnecting node) and for the promotion intent.
	MC        []byte
	Threshold float32
	Version   uint64
	// IncumbentVersion is the live model's version when the canary
	// started, reported back in CanaryReport.
	IncumbentVersion uint64
	// Epoch is the controller's install counter for the shadow slot:
	// 1 on the StartCanary push, bumped on every reconciliation
	// re-push. Carried in DeployRequest.Epoch and echoed back in
	// heartbeats. SeenEpoch is the last echoed value; any change means
	// the shadow was reinstalled and the window must re-anchor, even
	// when the fresh sketch's count caught up with the old one.
	Epoch, SeenEpoch uint64
	// BaseLive and BaseShadow anchor the evaluation window: the
	// cumulative live and shadow snapshots when the window opened.
	// LastLive/LastShadow are the latest cumulative snapshots.
	BaseLive, BaseShadow obs.SketchSnapshot
	LastLive, LastShadow obs.SketchSnapshot
	// Heartbeats counts shadow-carrying heartbeats since the window
	// opened — the expiry clock.
	Heartbeats int
	// Observations is the shadow window's score count; AgreePSI,
	// Spread, and PassDelta are the decision inputs — at verdict time,
	// or the latest observed values while evaluating.
	Observations                uint64
	AgreePSI, Spread, PassDelta float64
	// Outcome is "" while evaluating, then one of the Canary*
	// constants. Terminal states are kept for reporting; starting a
	// new canary for the pair replaces the record.
	Outcome string
	// Reason annotates rollbacks with what tripped them.
	Reason string
}

// observeCanary folds one heartbeat's shadow sketches into the node's
// canary windows (soft state) and returns a verdict record for every
// window that reached one. It decides nothing itself: the caller,
// holding the owning shard's mutex, commits the records, and the
// verdict's side effects (the promote/rollback round trips) must run
// outside that mutex.
func observeCanary(st *nodeState, node string, hb Heartbeat, cfg CanaryConfig) []*canaryVerdictRec {
	var verdicts []*canaryVerdictRec
	for stream, mcs := range hb.ShadowScores {
		for mc, cur := range mcs {
			key := stream + "/" + mc
			cs := st.Canary[key]
			if cs == nil || cs.Outcome != "" {
				// No canary started for this pair (a stale shadow the
				// rollback hasn't reached yet) or already decided.
				continue
			}
			live := hb.Scores[stream][mc]
			epoch := hb.ShadowEpochs[stream][mc]
			if epoch != cs.SeenEpoch || cur.Count < cs.LastShadow.Count {
				// The shadow was reinstalled (reconciliation re-pushed
				// the candidate after a reconnect): re-anchor the
				// window on the fresh sketches. The epoch check catches
				// a fresh sketch whose count already caught up between
				// heartbeats; count regression catches a reinstall that
				// repeats an epoch this evaluator has already seen.
				cs.BaseShadow = obs.SketchSnapshot{}
				cs.BaseLive = live
			}
			cs.SeenEpoch = epoch
			if cs.Heartbeats == 0 {
				// First shadow-carrying heartbeat: anchor the live
				// side so the window compares the same frame span.
				cs.BaseLive = live
			}
			if live.Count < cs.BaseLive.Count {
				// The incumbent's sketch restarted (redeployed while
				// the canary ran): re-anchor the live side rather than
				// subtract across sketch lifetimes.
				cs.BaseLive = live
			}
			cs.Heartbeats++
			cs.LastShadow = cur
			cs.LastLive = live

			shadowWin := cur.Sub(cs.BaseShadow)
			liveWin := live.Sub(cs.BaseLive)
			cs.Observations = shadowWin.Count
			cs.Spread = shadowWin.StdDev()
			cs.PassDelta = shadowWin.PassRate() - liveWin.PassRate()
			if cs.PassDelta < 0 {
				cs.PassDelta = -cs.PassDelta
			}
			cs.AgreePSI = obs.PSI(liveWin, shadowWin)

			var outcome, reason string
			switch {
			case shadowWin.Count < cfg.Window || liveWin.Count < cfg.Window:
				// No verdict until BOTH windows fill: with an empty or
				// short live window the pass-rate comparison degenerates
				// to the candidate's absolute pass rate, which would
				// spuriously roll back (or promote) healthy candidates.
				if cs.Heartbeats < cfg.ExpireAfter {
					continue
				}
				outcome = CanaryExpired
				reason = fmt.Sprintf("window shadow %d/%d live %d/%d after %d heartbeats",
					shadowWin.Count, cfg.Window, liveWin.Count, cfg.Window, cs.Heartbeats)
			case cs.Spread < cfg.MinSpread:
				outcome = CanaryRolledBack
				reason = fmt.Sprintf("degenerate scores: spread %.4f < %.4f", cs.Spread, cfg.MinSpread)
			case cs.PassDelta > cfg.MaxPassDelta:
				outcome = CanaryRolledBack
				reason = fmt.Sprintf("pass-rate gap %.3f > %.3f", cs.PassDelta, cfg.MaxPassDelta)
			default:
				outcome = CanaryPromoted
			}
			verdicts = append(verdicts, &canaryVerdictRec{
				Node: node, Stream: stream, Name: mc, Version: cs.Version,
				Outcome: outcome, Reason: reason,
				Observations: cs.Observations, Heartbeats: cs.Heartbeats,
				AgreePSI: cs.AgreePSI, Spread: cs.Spread, PassDelta: cs.PassDelta,
			})
		}
	}
	return verdicts
}

// StartCanary ships candidate MC bytes (a filter.(*MC).Save stream,
// normally a retrained artifact from internal/retrain) to the named
// node as a shadow deployment and opens an evaluation window for it.
// The candidate must share its name with a live incumbent on the
// stream — one recorded in the controller's intent or already
// reporting score sketches — otherwise the call is refused: without
// an incumbent the evaluator has nothing to compare against and every
// verdict would degenerate to the candidate's absolute pass rate. The
// heartbeat sketches of the two are compared until the window fills,
// then the controller promotes the candidate into the live slot or
// rolls it back, logging either edge. With the node offline the
// canary is recorded and ErrDeferred returned; reconciliation pushes
// the shadow when the node reconnects.
func (c *Controller) StartCanary(node, stream string, mc []byte, threshold float32) error {
	info, err := filter.MCInfo(bytes.NewReader(mc))
	if err != nil {
		return fmt.Errorf("fleet: canary MC bytes: %w", err)
	}
	key := stream + "/" + info.Name
	var sess *Session
	hasIncumbent := false
	c.onNode(node, true, func(sh *shard, st *nodeState) {
		sess = sh.liveSessionLocked(node)
		rec := &canaryStartRec{
			Node: node, Stream: stream, Name: info.Name,
			MC: mc, Threshold: threshold, Version: info.Version,
		}
		if dep, ok := st.Intent[stream][info.Name]; ok {
			hasIncumbent = true
			if inc, err := filter.MCInfo(bytes.NewReader(dep.MC)); err == nil {
				rec.IncumbentVersion = inc.Version
			}
		} else if sess != nil {
			// Not intent-managed: accept a directly deployed incumbent
			// if the node's heartbeats already carry its sketch.
			if hb, at := sess.LastHeartbeat(); !at.IsZero() {
				if _, ok := hb.Scores[stream][info.Name]; ok {
					hasIncumbent = true
					rec.IncumbentVersion = hb.ScoreVersions[stream][info.Name]
				}
			}
		}
		if hasIncumbent {
			sh.commit(rec)
		}
	})
	if !hasIncumbent {
		return fmt.Errorf("fleet: canary %s/%s: no live incumbent %q to evaluate against", node, key, info.Name)
	}
	c.cfg.Log.Info("fleet: canary started",
		"node", node, "target", key, "version", info.Version)
	if sess == nil {
		return fmt.Errorf("fleet: canary %s/%s: %w", node, key, ErrDeferred)
	}
	err = sess.deployCanary(stream, mc, threshold, info.Version, 1)
	if err != nil && errors.Is(err, ErrRejected) {
		// The node answered and refused the shadow: the canary can
		// never evaluate, drop it.
		c.onNode(node, true, func(sh *shard, _ *nodeState) {
			sh.commit(&canaryVerdictRec{
				Node: node, Stream: stream, Name: info.Name,
				Version: info.Version, Outcome: canaryRemoved,
			})
		})
	}
	return err
}

// resolveCanary performs a verdict's side effects off the shard lock:
// the promote swap (riding the deploy-generation machinery, so a
// reconnecting node converges on the candidate) or the shadow
// rollback. Invoked from noteHeartbeat's dispatch goroutine.
func (c *Controller) resolveCanary(v *canaryVerdictRec) {
	key := v.Stream + "/" + v.Name
	// current finds the record the verdict was reached on, or nil when
	// a new StartCanary replaced it between the verdict and this
	// goroutine: promoting then would ship the unevaluated replacement,
	// and withdrawing would kill it — the replacement is left to its own
	// evaluation, and stale leftovers on the edge to reconciliation.
	current := func(st *nodeState) *canaryState {
		if cs := st.Canary[key]; cs != nil && v.Outcome == cs.Outcome && v.Version == cs.Version {
			return cs
		}
		return nil
	}
	var sess *Session
	switch v.Outcome {
	case CanaryPromoted:
		var gen uint64
		c.onNode(v.Node, true, func(sh *shard, st *nodeState) {
			cs := current(st)
			if cs == nil {
				return
			}
			gen = st.Gen + 1
			sh.commit(&intentRec{
				Node: v.Node, Stream: v.Stream, Name: v.Name,
				MC: cs.MC, Threshold: cs.Threshold, Version: cs.Version, Gen: gen,
			})
			sess = sh.liveSessionLocked(v.Node)
		})
		if sess == nil {
			// Stale verdict, or the node dropped between verdict and swap
			// — in the latter case the intent now carries the candidate,
			// so reconciliation finishes the promotion on reconnect.
			return
		}
		if err := sess.promoteCanary(v.Stream, v.Name, gen, v.Version); err != nil {
			c.cfg.Log.Warn("fleet: canary promote push failed",
				"node", v.Node, "target", key, "err", err)
		}
	case CanaryRolledBack, CanaryExpired:
		c.onNode(v.Node, false, func(sh *shard, st *nodeState) {
			if current(st) != nil {
				sess = sh.liveSessionLocked(v.Node)
			}
		})
		if sess == nil {
			return
		}
		if err := sess.undeployCanary(v.Stream, v.Name); err != nil {
			c.cfg.Log.Warn("fleet: canary rollback push failed",
				"node", v.Node, "target", key, "err", err)
		}
	}
}

// CanaryReport is one (node, stream, MC) pair's canary status — the
// operator-facing view of the evaluator state.
type CanaryReport struct {
	// Node, Stream, and MC identify the candidate deployment.
	Node, Stream, MC string
	// Version is the candidate's model version; IncumbentVersion the
	// live model's version when the canary started.
	Version, IncumbentVersion uint64
	// Observations is the shadow window's score count so far;
	// Heartbeats the expiry clock.
	Observations uint64
	Heartbeats   int
	// AgreePSI, Spread, and PassDelta are the decision inputs (see
	// CanaryConfig).
	AgreePSI, Spread, PassDelta float64
	// State is "evaluating" until a verdict, then one of the Canary*
	// constants. Reason annotates rollbacks and expiries.
	State  string
	Reason string
}

// CanaryReports snapshots every tracked canary across all shards,
// terminal outcomes included, sorted by node, stream, then MC.
func (c *Controller) CanaryReports() []CanaryReport {
	var out []CanaryReport
	for _, sh := range c.snapshotShards() {
		sh.mu.Lock()
		for name, st := range sh.Nodes {
			for key, cs := range st.Canary {
				stream, mc, _ := strings.Cut(key, "/")
				state := cs.Outcome
				if state == "" {
					state = "evaluating"
				}
				out = append(out, CanaryReport{
					Node: name, Stream: stream, MC: mc,
					Version: cs.Version, IncumbentVersion: cs.IncumbentVersion,
					Observations: cs.Observations,
					Heartbeats:   cs.Heartbeats,
					AgreePSI:     cs.AgreePSI, Spread: cs.Spread, PassDelta: cs.PassDelta,
					State: state, Reason: cs.Reason,
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].MC < out[j].MC
	})
	return out
}
