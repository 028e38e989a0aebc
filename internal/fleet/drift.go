package fleet

import (
	"math"

	"repro/internal/obs"
)

// Default drift-detector parameters. PSI conventions treat 0.1–0.25
// as moderate shift and >0.25 as major; the binned KS statistic is a
// lower bound on the exact KS distance, so a threshold that fires on
// the bound fires on the true distance too.
const (
	DefaultDriftPSI      = 0.25
	DefaultDriftKS       = 0.35
	defaultDriftMinCount = 32
)

// driftOff disables one statistic's threshold entirely when assigned
// to DriftConfig.PSI or DriftConfig.KS — the per-threshold analogue of
// ffserve's `-slo name=off`. fillDefaults maps it to +Inf, so the
// disabled statistic can never flag drift on its own (zero still means
// "use the default").
const driftOff = -1

// DriftConfig parameterizes the controller's semantic drift detector,
// which compares each deployed MC's recent score distribution against
// a baseline frozen shortly after deploy (FilterForward's gateway to
// "has the world the MC was trained on changed?"). Zero fields take
// the defaults above.
type DriftConfig struct {
	// PSI is the population-stability-index alert threshold: a window
	// whose PSI against the baseline reaches it is drifted.
	PSI float64
	// KS is the binned Kolmogorov–Smirnov alert threshold, an
	// independent trigger (KS catches localized CDF shifts PSI's
	// log-ratio form can understate).
	//
	// Set PSI or KS to -1 to disable that statistic.
	KS float64
	// MinCount is the minimum number of score observations before a
	// baseline freezes and before a window is scored — small windows
	// make both statistics pure noise.
	MinCount uint64
}

func (d *DriftConfig) fillDefaults() {
	switch {
	case d.PSI == driftOff:
		d.PSI = math.Inf(1)
	case d.PSI <= 0:
		d.PSI = DefaultDriftPSI
	}
	switch {
	case d.KS == driftOff:
		d.KS = math.Inf(1)
	case d.KS <= 0:
		d.KS = DefaultDriftKS
	}
	if d.MinCount == 0 {
		d.MinCount = defaultDriftMinCount
	}
}

// driftState is one (stream, MC) pair's drift-detection state on its
// node record. Heartbeats carry cumulative sketches; the detector
// derives tumbling windows of at least MinCount observations by
// subtracting the snapshot at the last window boundary, and scores
// each window against the baseline frozen when the pair first reached
// MinCount. The state lives in nodeState, so a re-home moves it
// wholesale with the node record and no window is ever lost or
// double-scored across shards. Only the baseline freeze is logged (a
// driftBaselineRec, which starts the pair over at the baseline);
// everything after it — window boundary, scores, drifted flag — is
// soft state observeScores keeps from heartbeats.
type driftState struct {
	// Baseline is the frozen reference distribution; BaselineSet
	// guards it (an all-zero snapshot is a legal baseline only after
	// an explicit freeze, which MinCount makes impossible).
	Baseline    obs.SketchSnapshot
	BaselineSet bool
	// Prev is the cumulative snapshot at the last window boundary;
	// Last is the latest cumulative snapshot seen (its Count going
	// backwards marks an MC redeploy, which resets the pair).
	Prev obs.SketchSnapshot
	Last obs.SketchSnapshot
	// Version is the model version behind the sketches (zero for an
	// unversioned artifact). A version change marks a redeploy
	// even when the fresh sketch's count has already caught up to the
	// old cumulative count between heartbeats.
	Version uint64
	// PSI and KS are the most recent window's scores; Windows counts
	// scored windows; Drifted is the current threshold state, kept so
	// events fire on transitions, not on every heartbeat.
	PSI, KS float64
	Windows int
	Drifted bool
}

// driftEvent is one threshold transition, collected under the shard
// lock and logged outside it.
type driftEvent struct {
	node, key string
	psi, ks   float64
	window    uint64
	started   bool
}

// observeScores folds one heartbeat's cumulative score sketches, its
// score table's Scores entries, into the node's drift windows (soft
// state) and returns any threshold transitions, plus a freeze record
// for every pair whose baseline is due — first reaching MinCount, or
// again after a redeploy reset. It freezes nothing itself: the caller,
// holding the owning shard's mutex, commits the records, so a restarted
// controller scores windows against the same reference distribution
// instead of re-accumulating one shifted by however long the outage
// lasted. Each entry carries the model version behind its sketch (zero
// for an unversioned artifact).
//
// A window is scored against the baseline's obs.Baseline tables, which
// the entry's interned pair keeps beside the drift state they were
// derived from. A driftState never takes a new baseline in place: a
// reset clears its baseline, and nothing is scored until a freeze
// installs a new driftState (apply), as recovery and a re-home do when
// they rebuild the node record. So the tables are derived again exactly
// when the state the node's Drift map holds is not the one they came
// from, and the durable record never carries them. A pair already
// tracked costs no allocation: its key was built when the decoder
// interned it.
func observeScores(st *nodeState, node string, t *scoreTable, cfg DriftConfig) (events []driftEvent, freezes []*driftBaselineRec) {
	for i := range t.sketches {
		e := &t.sketches[i]
		p, cur := e.pair, &e.sketch
		if st.Drift == nil {
			st.Drift = make(map[string]*driftState)
		}
		ds := st.Drift[p.key]
		if ds == nil {
			ds = &driftState{}
			st.Drift[p.key] = ds
		}
		if (ds.Last.Count > 0 && e.version != ds.Version) || cur.Count < ds.Last.Count {
			// The model version changed, or the cumulative count
			// went backwards (a redeploy that kept the version, as
			// an unversioned artifact does): the sketches now
			// describe a fresh deployment, and the old baseline
			// must not score it. Keying on the version catches the
			// case the count check alone misses — a redeployed MC
			// whose fresh sketch reaches the old cumulative count
			// between heartbeats.
			*ds = driftState{}
		}
		ds.Version = e.version
		ds.Last = *cur
		if !ds.BaselineSet {
			if cur.Count >= cfg.MinCount {
				freezes = append(freezes, &driftBaselineRec{Node: node, Key: p.key, Baseline: *cur, Version: e.version})
			}
			continue
		}
		window := cur.Count - ds.Prev.Count
		if window < cfg.MinCount {
			continue
		}
		if p.ds != ds {
			p.ds, p.base = ds, obs.NewBaseline(&ds.Baseline)
		}
		ds.PSI, ds.KS = p.base.Score(cur, &ds.Prev)
		ds.Windows++
		ds.Prev = *cur
		drifted := ds.PSI >= cfg.PSI || ds.KS >= cfg.KS
		if drifted != ds.Drifted {
			events = append(events, driftEvent{
				node: node, key: p.key, psi: ds.PSI, ks: ds.KS,
				window: window, started: drifted,
			})
		}
		ds.Drifted = drifted
	}
	return events, freezes
}

// noteHeartbeat is the shard's per-heartbeat drift hook, invoked from
// the session reader goroutine. It runs the drift observer over the
// heartbeat's sketches, commits the baseline freezes it returns (one
// a fenced shard cannot log is skipped, and the next heartbeat returns
// it again), and logs threshold transitions; a heartbeat landing after
// the session died is ignored, mirroring acceptUploads.
func (sh *shard) noteHeartbeat(s *Session, t *scoreTable) {
	if len(t.sketches) == 0 {
		return
	}
	sh.mu.Lock()
	select {
	case <-s.done:
		sh.mu.Unlock()
		return
	default:
	}
	events, freezes := observeScores(sh.Nodes[s.node], s.node, t, sh.c.cfg.Drift)
	for _, rec := range freezes {
		sh.commit(rec)
	}
	sh.mu.Unlock()
	for _, ev := range events {
		if ev.started {
			sh.c.cfg.Log.Warn("fleet: drift detected",
				"node", ev.node, "target", ev.key, "shard", sh.id,
				"psi", ev.psi, "ks", ev.ks, "window", ev.window)
		} else {
			sh.c.cfg.Log.Info("fleet: drift cleared",
				"node", ev.node, "target", ev.key, "shard", sh.id,
				"psi", ev.psi, "ks", ev.ks, "window", ev.window)
		}
	}
}
